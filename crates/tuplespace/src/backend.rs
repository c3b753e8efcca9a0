//! The backend abstraction behind [`crate::TupleSpace`].
//!
//! PLinda's programming model — `out`/`in`/`rd`, lightweight transactions,
//! continuation committing, checkpointing — is independent of *where* the
//! tuples live. The dissertation ran the space in a server process on a
//! LAN of workstations; the seed of this repository ran it as sharded
//! in-process state. [`SpaceBackend`] is the seam between those two
//! worlds: every tuple-space access the facade, the [`crate::Process`]
//! transaction layer, the [`crate::runtime::Runtime`], the farm, and the
//! typed channels perform goes through this trait, so a program written
//! against [`crate::TupleSpace`] runs unchanged over
//!
//! * [`LocalBackend`](crate::space) — the in-process sharded space
//!   (constructed by [`crate::TupleSpace::new`]), and
//! * [`SocketBackend`](crate::net) — a Unix-domain-socket client speaking
//!   the length-prefixed [`crate::codec`] wire format to an `fpdm-spaced`
//!   broker process (constructed by [`crate::TupleSpace::connect_unix`]).
//!
//! ## Contract
//!
//! Implementations must be [`Send`] + [`Sync`]; one backend instance is
//! shared by every process of a runtime. The semantic obligations are:
//!
//! * **Visibility**: a tuple passed to [`SpaceBackend::out`] (or published
//!   by [`SpaceBackend::txn_commit`]) is visible to every other process
//!   once the call returns. Commit batches become visible atomically.
//! * **Exactly-once withdrawal**: a tuple is returned by at most one
//!   withdrawing operation (`inp`, or an `in_cancellable` wait) across all
//!   connected processes.
//! * **Blocking waits**: `in_cancellable`/`rd_cancellable` block until a
//!   matching tuple is available or the cancel flag becomes true. The
//!   cancel flag is how the runtime aborts a parked process when its
//!   "workstation owner returns"; backends must observe it promptly after
//!   [`SpaceBackend::kick`] (local) or within a bounded poll interval
//!   (socket).
//! * **Transactions**: `txn_commit` atomically publishes the buffered
//!   outs *and* durably records the continuation; `txn_abort` restores
//!   the tentatively withdrawn tuples. A backend that hosts the space in
//!   another OS process must additionally restore a client's tentative
//!   withdrawals when the client dies without aborting (SIGKILL) — that
//!   is what makes OS-process kill-respawn recovery sound.
//! * **Checkpoint hooks**: `snapshot` is a consistent cut of the visible
//!   space; `restore` replaces the visible space contents (rollback
//!   recovery) and re-evaluates blocked waits against the restored state.
//!
//! Errors are reported as [`PlindaError`]: [`PlindaError::Transport`] for
//! connection failures, [`PlindaError::Codec`] for malformed wire data.
//! The in-process backend is infallible and never returns either.

use crate::process::PlindaError;
use crate::template::Template;
use crate::value::Tuple;
use std::sync::atomic::AtomicBool;

/// One concrete home for the tuples of a [`crate::TupleSpace`]. See the
/// [module docs](self) for the semantic contract.
pub trait SpaceBackend: Send + Sync {
    /// Short human-readable backend name (`"local"`, `"unix-socket"`)
    /// for diagnostics.
    fn kind(&self) -> &'static str;

    /// `out`: make `t` visible to every process. Never blocks.
    fn out(&self, t: Tuple) -> Result<(), PlindaError>;

    /// Bulk `out`: all of `ts` become visible atomically.
    fn out_all(&self, ts: Vec<Tuple>) -> Result<(), PlindaError>;

    /// `inp`: withdraw a matching tuple if one exists, without blocking.
    fn inp(&self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError>;

    /// `rdp`: copy a matching tuple if one exists, without blocking.
    fn rdp(&self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError>;

    /// `in` with cancellation: block until a match is withdrawn, returning
    /// `Ok(None)` if `cancel` became true while waiting.
    fn in_cancellable(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Tuple>, PlindaError>;

    /// `rd` with cancellation; see [`SpaceBackend::in_cancellable`].
    fn rd_cancellable(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Tuple>, PlindaError>;

    /// Threads currently parked in a blocking wait *inside this backend*.
    /// Readiness introspection for tests and services (e.g. "the consumer
    /// is parked, now produce"), not part of the Linda model. A socket
    /// client reports 0 — its waiters park broker-side, where
    /// [`crate::Broker::waiting`] observes them.
    fn waiting(&self) -> usize {
        0
    }

    /// Deferred `out`: visibility may lag until the backend's next flush
    /// barrier — any response-bearing operation on the same connection, or
    /// an explicit [`SpaceBackend::flush`]. Within one connection program
    /// order is preserved, so a subsequent `inp`/`in` always observes the
    /// deferred tuple. A deferred tuple of a client that dies before its
    /// next barrier was never visible and is discarded. The local backend
    /// is its own barrier: `out_deferred` is exactly `out`.
    fn out_deferred(&self, t: Tuple) -> Result<(), PlindaError> {
        self.out(t)
    }

    /// Bulk deferred `out`; see [`SpaceBackend::out_deferred`].
    fn out_all_deferred(&self, ts: Vec<Tuple>) -> Result<(), PlindaError> {
        self.out_all(ts)
    }

    /// Force application of this connection's deferred outs, returning
    /// how many tuples were acknowledged as applied since the last flush.
    /// Immediate backends always report 0.
    fn flush(&self) -> Result<u64, PlindaError> {
        Ok(0)
    }

    /// Bulk `inp`: withdraw up to `max` matching tuples without blocking,
    /// as one atomic drain where the backend supports it.
    fn inp_batch(&self, tmpl: &Template, max: usize) -> Result<Vec<Tuple>, PlindaError> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.inp(tmpl)? {
                Some(t) => out.push(t),
                None => break,
            }
        }
        Ok(out)
    }

    /// Bulk `in` with cancellation: block until at least one match is
    /// withdrawn, then drain up to `max - 1` more without blocking.
    /// Returns `Ok(None)` if `cancel` became true while waiting; a
    /// successful return holds between 1 and `max` tuples.
    fn in_batch_cancellable(
        &self,
        tmpl: &Template,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError> {
        match self.in_cancellable(tmpl, cancel)? {
            Some(first) => {
                let mut got = vec![first];
                if max > 1 {
                    got.extend(self.inp_batch(tmpl, max - 1)?);
                }
                Ok(Some(got))
            }
            None => Ok(None),
        }
    }

    /// Wake every blocked wait so it re-checks its cancel flag. Local
    /// backends notify their condvars; polling backends may no-op.
    fn kick(&self);

    /// Number of visible tuples.
    fn len(&self) -> Result<usize, PlindaError>;

    /// Whether the visible space holds no tuples.
    fn is_empty(&self) -> Result<bool, PlindaError> {
        Ok(self.len()? == 0)
    }

    /// Count visible tuples matching `tmpl`.
    fn count(&self, tmpl: &Template) -> Result<usize, PlindaError>;

    /// Consistent cut of every visible tuple, in deterministic
    /// (sorted-signature) order.
    fn snapshot(&self) -> Result<Vec<Tuple>, PlindaError>;

    /// Replace the visible space contents (rollback recovery). Blocked
    /// waits must be re-evaluated against the restored state.
    fn restore(&self, tuples: Vec<Tuple>) -> Result<(), PlindaError>;

    /// A process opened a transaction. Remote backends use this to start
    /// tracking the connection's tentative withdrawals; the local backend
    /// (whose `Process` keeps the tentative set client-side) no-ops.
    fn txn_begin(&self, _pid: u64) -> Result<(), PlindaError> {
        Ok(())
    }

    /// Commit: atomically publish `publish` and, in the same step, record
    /// `cont` as `pid`'s continuation. The atomicity matters for remote
    /// backends — a client killed between "publish" and "record
    /// continuation" must not leave the two observable states divergent.
    fn txn_commit(
        &self,
        pid: u64,
        publish: Vec<Tuple>,
        cont: Option<Tuple>,
    ) -> Result<(), PlindaError>;

    /// Abort: restore the transaction's tentative withdrawals. `restore`
    /// is the client-side record; a backend with its own authoritative
    /// tracking (the broker) may use that instead.
    fn txn_abort(&self, pid: u64, restore: Vec<Tuple>) -> Result<(), PlindaError>;

    /// Latest committed continuation of logical process `pid`, if any.
    fn cont_get(&self, pid: u64) -> Result<Option<Tuple>, PlindaError>;

    /// Drop the continuation of `pid` (process completed normally).
    fn cont_clear(&self, pid: u64) -> Result<(), PlindaError>;
}
