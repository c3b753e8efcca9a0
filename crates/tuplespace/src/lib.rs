//! # `plinda` — a Persistent Linda-style coordination substrate
//!
//! This crate reimplements the coordination model of **Persistent Linda
//! (PLinda)** — the fault-tolerant tuple-space system the dissertation
//! *Free Parallel Data Mining* (Bin Li, NYU, 1998) uses as its parallel
//! computing platform — as an in-process, thread-based runtime.
//!
//! The model has three layers:
//!
//! 1. **Linda**: a *generative* shared memory. Processes communicate by
//!    placing immutable [`Tuple`]s into a shared [`TupleSpace`] (`out`) and
//!    withdrawing or reading tuples that match a [`Template`] (`in`/`rd`,
//!    with non-blocking `inp`/`rdp` variants). Communication is anonymous
//!    and un-coupled: the producer and consumer of a tuple never need to
//!    know about each other or run at the same time.
//!
//! 2. **Transactions** (the *Persistent* part): every process executes as a
//!    sequence of lightweight transactions (`xstart` … `xcommit`). Within a
//!    transaction, `out`s are buffered (invisible to other processes until
//!    commit) and `in`s are tentative (restored on abort). `xcommit` takes
//!    an optional *continuation* tuple holding the process's live local
//!    variables; after a failure, the re-spawned process retrieves it with
//!    `xrecover` and resumes from the last committed transaction. The
//!    combined guarantee (§7.1.2 of the dissertation): a completed PLinda
//!    computation, with or without failures, reaches the same final state
//!    as a failure-free execution of the associated Linda program.
//!
//! 3. **Runtime**: a [`runtime::Runtime`] that plays the role of the PLinda
//!    server plus the per-workstation daemons. It spawns worker processes
//!    (`proc_eval`), detects failures (here: injected kills standing in for
//!    workstation owners returning, per §2.4.5/§7.1.1), aborts the victim's
//!    open transaction, and re-spawns the process elsewhere. The visible
//!    tuple space can be checkpointed to disk and rolled back
//!    ([`TupleSpace::checkpoint_bytes`] / [`TupleSpace::restore_bytes`]).
//!
//! The original PLinda ran C++ processes across a LAN of workstations; the
//! data-mining programs built on it, however, are expressed *entirely* in
//! terms of tuple operations and transactions, so running them over threads
//! in one address space preserves their concurrency, blocking,
//! load-balancing, and recovery semantics exactly. See `DESIGN.md` at the
//! workspace root for the substitution argument.
//!
//! ## Example: the vector-addition master/worker of Fig. 2.6/2.7
//!
//! ```
//! use plinda::{Runtime, Template, Value, tup, field};
//!
//! let rt = Runtime::new();
//! // Workers: repeatedly withdraw a task, add the chunks, emit a result.
//! for _ in 0..3 {
//!     rt.spawn("adder", |p| {
//!         loop {
//!             p.xstart()?;
//!             let t = p.in_(Template::new(vec![
//!                 field::val("task"), field::int(), field::int(),
//!             ]))?;
//!             if t.int(1) < 0 { p.xcommit(None)?; return Ok(()); } // poison
//!             let sum = t.int(1) + t.int(2);
//!             p.out(tup!["result", t.int(1), sum]);
//!             p.xcommit(None)?;
//!         }
//!     });
//! }
//! // Master: emit tasks, gather results, send poison pills.
//! let space = rt.space();
//! for i in 0..6i64 { space.out(tup!["task", i, 100 - i]); }
//! let mut total = 0;
//! for _ in 0..6 {
//!     let r = space.in_blocking(Template::new(vec![
//!         field::val("result"), field::int(), field::int(),
//!     ]));
//!     total += r.int(2);
//! }
//! for _ in 0..3 { space.out(tup!["task", -1i64, -1i64]); }
//! rt.join();
//! assert_eq!(total, 600 + (0..6).map(|i| i).sum::<i64>() - (0..6).sum::<i64>());
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod channel;
pub mod check;
pub mod codec;
pub mod farm;
pub mod metrics;
pub mod net;
mod probe;
pub mod process;
pub mod runtime;
pub mod space;
pub mod template;
pub mod value;

pub use backend::SpaceBackend;
pub use channel::{Chan, KeyedChan, Payload, Wire};
pub use check::{Recorder, Trace, TraceEvent};
pub use farm::{Dispatch, FarmConfig, FarmReport, TaskFarm, WorkerScope, WorkerStats, POISON};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use net::{Broker, BrokerConfig};
pub use process::{PlindaError, Process, ProcessStatus};
pub use runtime::{FaultPlan, Runtime};
pub use space::TupleSpace;
pub use template::{field, Field, Template};
pub use value::{Sig, Tuple, TypeTag, Value};
