//! The instrumentation seam: every instrumented space, transaction and
//! runtime operation emits one [`Event`] to its space's [`Probe`], and the
//! probe hands it to whichever of the two sinks are installed — the trace
//! [`Recorder`] the `check` analyzers read, and the metrics [`Ledger`]
//! behind the `fpdm.metrics.v1` registry.
//!
//! * **One flag.** With no sink installed, [`Probe::emit`] is one relaxed
//!   atomic load; events borrow the site's tuples and templates, so
//!   nothing is cloned or counted on that path.
//! * **One probe lock.** With a sink installed, an event takes the probe
//!   mutex once and both sinks run under it. The recorder clones the
//!   borrowed tuples into owned [`crate::TraceEvent`]s and appends them
//!   under its own buffer lock; the ledger bumps cached atomic handles.
//!   Facts only one sink needs ride on the event and the other sink
//!   ignores them.
//! * **Sinks never re-enter the space.** Visible-space events are emitted
//!   under the owning partition lock (so for any single tuple the trace
//!   order is its real order of production and withdrawal), so a sink that
//!   touched the space could deadlock. Values that need the space, such as
//!   a channel's depth, are computed by the site before it emits.

use crate::check::trace::{OpKind, Recorder};
use crate::metrics::{Ledger, MetricsRegistry};
use crate::template::Template;
use crate::value::Tuple;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// One instrumented operation, borrowing what it touched.
///
/// Space events carry no actor: the recorder attributes them to the
/// thread's current actor (see `trace::with_actor`).
pub(crate) enum Event<'a> {
    /// Tuples became visible: a direct `out`, a commit's publication, or an
    /// abort's restores. `occupancy` is set when every tuple is in one local
    /// partition that holds that many tuples after the op; `deferred` marks
    /// a fire-and-forget out of the socket backend.
    Out {
        tuples: &'a [Tuple],
        occupancy: Option<usize>,
        deferred: bool,
    },
    /// Visible tuples of one signature were withdrawn (`in`/`inp`) or, with
    /// `withdrawn` false, one was read (`rd`/`rdp`). `occupancy` as for
    /// `Out`; `batch` marks one batched exchange with a broker.
    Found {
        withdrawn: bool,
        tuples: &'a [Tuple],
        occupancy: Option<usize>,
        batch: bool,
    },
    /// A non-blocking operation found no match (`batch` as for `Found`).
    Miss {
        op: OpKind,
        template: &'a Template,
        batch: bool,
    },
    /// A blocking operation parked.
    Block { op: OpKind, template: &'a Template },
    /// A parked operation found its match; `since` is when it blocked.
    Wake { since: Option<Instant> },
    /// A parked operation observed its cancellation flag.
    WaitCancelled,
    /// The visible space was replaced by `tuples` (those the backend
    /// placed itself; any others follow as `Out` events).
    Restore { tuples: &'a [Tuple] },
    /// `xstart`.
    XStart { pid: u64, txn: u64 },
    /// `xstart` inside an open transaction.
    NestedXStart { pid: u64 },
    /// `out` buffered inside a transaction.
    BufferedOut {
        pid: u64,
        txn: u64,
        tuple: &'a Tuple,
    },
    /// Withdrawals inside a transaction became tentative.
    TentativeIn {
        pid: u64,
        txn: u64,
        tuples: &'a [Tuple],
    },
    /// Withdrawals satisfied from the transaction's own outbox.
    SelfIn {
        pid: u64,
        txn: u64,
        tuples: &'a [Tuple],
    },
    /// `xcommit` succeeded; `started` is when the transaction opened.
    XCommit {
        pid: u64,
        txn: u64,
        published: &'a [Tuple],
        consumed: &'a [Tuple],
        continuation: bool,
        started: Option<Instant>,
    },
    /// A transaction aborted.
    XAbort {
        pid: u64,
        txn: u64,
        restored: &'a [Tuple],
        dropped: &'a [Tuple],
    },
    /// `xrecover`.
    XRecover { pid: u64, found: bool },
    /// A runtime worker thread started.
    Spawn,
    /// A process was killed.
    Kill { pid: u64 },
    /// A killed process was re-spawned.
    Respawn { pid: u64 },
    /// A process finished, normally or retired on a protocol violation.
    Done { pid: u64, protocol_error: bool },
    /// A socket `Flush`, or a `TxnCommit` behind deferred outs,
    /// acknowledged `acked` deferred outs.
    Flush { acked: u64 },
    /// `n` channel sends or receives, with the channel depth sampled by
    /// the site.
    Chan {
        name: &'a str,
        dir: &'static str,
        n: u64,
        depth: i64,
    },
}

const RECORDER: u8 = 1;
const LEDGER: u8 = 2;

#[derive(Default)]
struct Sinks {
    recorder: Option<Recorder>,
    ledger: Option<Ledger>,
}

/// The per-space instrumentation slot, shared by the facade and its
/// backend.
#[derive(Default)]
pub(crate) struct Probe {
    /// `RECORDER | LEDGER` bits of the installed sinks. Relaxed suffices:
    /// the flag publishes no data, since the sinks are only read under
    /// `sinks`' mutex, and a stale read merely skips (or locks for nothing
    /// on) an op that races the install or removal.
    installed: AtomicU8,
    sinks: Mutex<Sinks>,
}

impl Probe {
    /// Install or remove the trace recorder.
    pub(crate) fn set_recorder(&self, rec: Option<Recorder>) {
        let mut sinks = self.sinks.lock();
        sinks.recorder = rec;
        self.publish(&sinks);
    }

    /// Install or remove the metrics registry. Each install starts a fresh
    /// ledger, so handles cached against a previous registry are dropped.
    pub(crate) fn set_metrics(&self, reg: Option<MetricsRegistry>) {
        let mut sinks = self.sinks.lock();
        sinks.ledger = reg.map(Ledger::new);
        self.publish(&sinks);
    }

    fn publish(&self, sinks: &Sinks) {
        let bits = u8::from(sinks.recorder.is_some()) * RECORDER
            + u8::from(sinks.ledger.is_some()) * LEDGER;
        self.installed.store(bits, Ordering::Relaxed);
    }

    /// The installed metrics registry, if any.
    pub(crate) fn metrics(&self) -> Option<MetricsRegistry> {
        self.sinks
            .lock()
            .ledger
            .as_ref()
            .map(|l| l.registry().clone())
    }

    /// Is a metrics registry installed? One relaxed load.
    #[inline]
    pub(crate) fn metrics_enabled(&self) -> bool {
        self.installed.load(Ordering::Relaxed) & LEDGER != 0
    }

    /// Hand `ev` to the installed sinks. Returns whether any sink was
    /// installed, so a site can sample a clock only a sink will read.
    #[inline]
    pub(crate) fn emit(&self, ev: Event<'_>) -> bool {
        if self.installed.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.deliver(ev);
        true
    }

    #[inline(never)]
    fn deliver(&self, ev: Event<'_>) {
        let mut sinks = self.sinks.lock();
        if let Some(ledger) = &mut sinks.ledger {
            ledger.account(&ev);
        }
        if let Some(rec) = &sinks.recorder {
            rec.record_event(ev);
        }
    }
}
