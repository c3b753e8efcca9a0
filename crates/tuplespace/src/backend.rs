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
//! * **Three retrieval shapes**: every Linda operation is one of
//!   [`SpaceBackend::out`] (optionally deferred), [`SpaceBackend::poll`]
//!   (non-blocking) and [`SpaceBackend::wait`] (blocking), each with a
//!   `take` (`in`) or read (`rd`) mode and a `max` batch size — the same
//!   three shapes the socket protocol carries as frames.
//! * **Visibility**: a tuple passed to `out` (or published by
//!   [`SpaceBackend::txn_commit`]) is visible to every other process
//!   once the call returns. Batches become visible atomically.
//! * **Exactly-once withdrawal**: a tuple is returned by at most one
//!   withdrawing `poll` or `wait` across all connected processes.
//! * **Blocking waits**: `wait` blocks until a matching tuple is
//!   available or the cancel flag becomes true. The cancel flag is how
//!   the runtime aborts a parked process when its "workstation owner
//!   returns"; backends must observe it promptly after
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

/// How many tuples one retrieval may return: up to `max` for a take (a
/// `max` of 0 counts as 1), one for a read.
pub(crate) fn capacity(take: bool, max: usize) -> usize {
    if take {
        max.max(1)
    } else {
        1
    }
}

/// One concrete home for the tuples of a [`crate::TupleSpace`]. See the
/// [module docs](self) for the semantic contract.
pub trait SpaceBackend: Send + Sync {
    /// Short human-readable backend name (`"local"`, `"unix-socket"`)
    /// for diagnostics.
    fn kind(&self) -> &'static str;

    /// `out`: make every tuple of `ts` visible to every process, all of
    /// them atomically. Never blocks. A `deferred` out's visibility may
    /// lag until the backend's next flush barrier — any response-bearing
    /// operation on the same connection, or an explicit
    /// [`SpaceBackend::flush`] — but within one connection program order
    /// is preserved, so a later retrieval always observes it. A deferred
    /// tuple of a client that dies before its next barrier was never
    /// visible and is discarded. The local backend is its own barrier: a
    /// deferred out is an out.
    fn out(&self, ts: Vec<Tuple>, deferred: bool) -> Result<(), PlindaError>;

    /// `inp`/`rdp`: retrieve matches of `tmpl` without blocking — with
    /// `take`, withdraw up to `max` of them (a `max` of 0 counts as 1);
    /// without, copy one. Returns no tuple when nothing matches.
    fn poll(&self, tmpl: &Template, take: bool, max: usize) -> Result<Vec<Tuple>, PlindaError>;

    /// `in`/`rd`: as [`SpaceBackend::poll`], but block until at least one
    /// match is retrieved, returning `Ok(None)` if `cancel` became true
    /// while waiting. A successful return holds at least one tuple.
    fn wait(
        &self,
        tmpl: &Template,
        take: bool,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError>;

    /// Threads currently parked in a blocking wait *inside this backend*.
    /// Readiness introspection for tests and services (e.g. "the consumer
    /// is parked, now produce"), not part of the Linda model. A socket
    /// client reports 0 — its waiters park broker-side, where
    /// [`crate::Broker::waiting`] observes them.
    fn waiting(&self) -> usize {
        0
    }

    /// Force application of this connection's deferred outs, returning
    /// how many tuples were acknowledged as applied since the last flush.
    /// Immediate backends always report 0.
    fn flush(&self) -> Result<u64, PlindaError> {
        Ok(0)
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

#[cfg(test)]
mod tests {
    use super::capacity;
    use crate::check::{explore, ExploreConfig};
    use crate::template::field;
    use crate::{tup, Broker, BrokerConfig, Template, Tuple, TupleSpace};

    /// One retrieval shape's name, what it returned (sorted) and the
    /// snapshot it left.
    type Outcome = (String, Vec<String>, Vec<String>);

    fn sorted(ts: &[Tuple]) -> Vec<String> {
        let mut v: Vec<String> = ts.iter().map(|t| format!("{t:?}")).collect();
        v.sort();
        v
    }

    /// Run every `poll`/`wait` shape — take and read, `max` 0, 1 and 3,
    /// against fewer, as many and more matches than the shape may
    /// return — each on a space restored to the same contents, which
    /// include a non-matching tuple of the template's signature and one
    /// of another signature. A `wait` with nothing to match is left out:
    /// it would park forever.
    fn shapes(space: &TupleSpace) -> Vec<Outcome> {
        let backend = space.backend();
        let tmpl = Template::new(vec![field::val("m"), field::int()]);
        let mut outcomes = Vec::new();
        for take in [true, false] {
            for max in [0, 1, 3] {
                let cap = capacity(take, max);
                for matches in [cap - 1, cap, cap + 2] {
                    let mut contents: Vec<Tuple> =
                        (0..matches).map(|i| tup!["m", i as i64]).collect();
                    contents.extend([tup!["n", 0], tup!["m", 0, 0]]);
                    for block in [false, true].into_iter().filter(|&b| !b || matches > 0) {
                        backend.restore(contents.clone()).unwrap();
                        let got = if block {
                            backend.wait(&tmpl, take, max, None).unwrap().unwrap()
                        } else {
                            backend.poll(&tmpl, take, max).unwrap()
                        };
                        let shape = format!(
                            "{} take={take} max={max} matches={matches}",
                            if block { "wait" } else { "poll" }
                        );
                        assert_eq!(got.len(), matches.min(cap), "{shape}");
                        outcomes.push((shape, sorted(&got), sorted(&backend.snapshot().unwrap())));
                    }
                }
            }
        }
        outcomes
    }

    #[test]
    fn local_socket_and_scheduled_backends_agree_on_every_retrieval_shape() {
        let local = shapes(&TupleSpace::new());
        let socket_path = std::env::temp_dir().join(format!(
            "fpdm-test-{}-backends-agree.sock",
            std::process::id()
        ));
        let broker = Broker::start(BrokerConfig::new(socket_path)).unwrap();
        let socket = shapes(&TupleSpace::connect_unix(broker.socket()).unwrap());
        let cfg = ExploreConfig {
            random_schedules: 0,
            ..ExploreConfig::new()
        };
        let scheduled = explore(&cfg, |space| shapes(&space))
            .reference
            .expect("the scheduled run completed");
        assert_eq!(local.len(), 31);
        assert_eq!(socket, local);
        assert_eq!(scheduled, local);
    }
}
