//! The trace model: structured events describing one run of a tuple-space
//! program, and the [`Recorder`] handle that collects them.
//!
//! Every Linda operation, transaction event, block/wake transition, and
//! kill is appended to a per-run trace when a recorder is installed on the
//! [`crate::TupleSpace`] (see [`crate::TupleSpace::set_recorder`]). The
//! recorder is one of the two sinks of the space's instrumentation probe
//! (the metrics ledger is the other), so trace and ledger are read off the
//! same event stream and share its fast path: one relaxed atomic load per
//! operation while neither sink is installed. Events that mutate the
//! *visible* space are emitted while the owning partition lock is held, so
//! for any single tuple the trace order agrees with the real order of its
//! production and withdrawal; cross-partition order is the recorder's own
//! append order.

use crate::probe::Event;
use crate::template::Template;
use crate::value::Tuple;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Which Linda operation a [`TraceEvent::Block`] / [`TraceEvent::Miss`]
/// refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Blocking withdrawal.
    In,
    /// Blocking read.
    Rd,
    /// Non-blocking withdrawal.
    Inp,
    /// Non-blocking read.
    Rdp,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpKind::In => "in",
            OpKind::Rd => "rd",
            OpKind::Inp => "inp",
            OpKind::Rdp => "rdp",
        })
    }
}

/// One event of a run trace.
///
/// `actor`/`pid` is the logical process id of the [`crate::Process`] that
/// performed the operation, or `0` for anonymous direct access to the
/// space (the master side of the dissertation's programs drives the space
/// without a transaction handle).
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A tuple became visible to every process: a direct `out`, a commit
    /// publication, or an abort restoring a tentatively-withdrawn tuple.
    OutVisible {
        /// Producing actor.
        actor: u64,
        /// The tuple as published.
        tuple: Tuple,
    },
    /// A visible tuple was withdrawn (`in`/`inp`).
    Take {
        /// Withdrawing actor.
        actor: u64,
        /// The tuple as withdrawn.
        tuple: Tuple,
    },
    /// A visible tuple was read without withdrawal (`rd`/`rdp`).
    Read {
        /// Reading actor.
        actor: u64,
        /// The tuple as read.
        tuple: Tuple,
    },
    /// A non-blocking operation found no match.
    Miss {
        /// Polling actor.
        actor: u64,
        /// Which operation missed.
        op: OpKind,
        /// The unmatched template.
        template: Template,
    },
    /// A blocking operation parked on its partition's condition variable.
    Block {
        /// Blocked actor.
        actor: u64,
        /// Which operation blocked.
        op: OpKind,
        /// The template being waited for.
        template: Template,
    },
    /// A previously blocked operation found its match and resumed.
    Wake {
        /// Resumed actor.
        actor: u64,
    },
    /// A blocked operation observed its cancellation flag (kill) and gave
    /// up without a tuple.
    WaitCancelled {
        /// Cancelled actor.
        actor: u64,
    },
    /// `xstart`: a transaction opened.
    XStart {
        /// Owning process.
        pid: u64,
        /// Per-process transaction sequence number (1-based).
        txn: u64,
    },
    /// `out` inside an open transaction: buffered, invisible until commit.
    BufferedOut {
        /// Owning process.
        pid: u64,
        /// Enclosing transaction.
        txn: u64,
        /// The buffered tuple.
        tuple: Tuple,
    },
    /// A withdrawal inside an open transaction became tentative (it will
    /// be restored if the transaction aborts). The corresponding
    /// [`TraceEvent::Take`] precedes this event.
    TentativeIn {
        /// Owning process.
        pid: u64,
        /// Enclosing transaction.
        txn: u64,
        /// The tentatively-withdrawn tuple.
        tuple: Tuple,
    },
    /// A withdrawal inside an open transaction was satisfied from the
    /// transaction's *own* outbox — the tuple was never visible.
    SelfIn {
        /// Owning process.
        pid: u64,
        /// Enclosing transaction.
        txn: u64,
        /// The tuple taken back out of the outbox.
        tuple: Tuple,
    },
    /// `xcommit` succeeded: the buffered outs were published atomically.
    XCommit {
        /// Owning process.
        pid: u64,
        /// The committed transaction.
        txn: u64,
        /// Tuples published by the commit (the surviving outbox).
        published: Vec<Tuple>,
        /// Tuples the transaction had tentatively withdrawn (now final).
        consumed: Vec<Tuple>,
        /// Whether a continuation tuple was stored.
        continuation: bool,
    },
    /// A transaction aborted (kill observed at or before the commit
    /// point): withdrawn tuples restored, buffered tuples discarded.
    XAbort {
        /// Owning process.
        pid: u64,
        /// The aborted transaction.
        txn: u64,
        /// Tuples restored to the space (the tentative withdrawals).
        restored: Vec<Tuple>,
        /// Buffered tuples discarded unpublished.
        dropped: Vec<Tuple>,
    },
    /// `xrecover` was called.
    XRecover {
        /// Recovering process.
        pid: u64,
        /// Whether a predecessor continuation was found.
        found: bool,
    },
    /// `xstart` inside an open transaction — a protocol violation,
    /// surfaced as [`crate::PlindaError::NestedTransaction`].
    NestedXStart {
        /// Offending process.
        pid: u64,
    },
    /// The process was killed (workstation owner returned / injected
    /// failure / the explorer's commit-boundary kill).
    Kill {
        /// Killed process.
        pid: u64,
    },
    /// A killed process was re-spawned as a fresh incarnation.
    Respawn {
        /// Re-spawned logical process.
        pid: u64,
    },
    /// The process completed normally.
    Done {
        /// Completed process.
        pid: u64,
    },
    /// The visible space was wholesale replaced ([`crate::TupleSpace::
    /// restore_bytes`]); replay state must reset. The restored tuples
    /// follow as [`TraceEvent::OutVisible`] events.
    Reset {
        /// Restoring actor.
        actor: u64,
    },
}

impl TraceEvent {
    /// The actor / pid the event belongs to.
    pub fn actor(&self) -> u64 {
        match self {
            TraceEvent::OutVisible { actor, .. }
            | TraceEvent::Take { actor, .. }
            | TraceEvent::Read { actor, .. }
            | TraceEvent::Miss { actor, .. }
            | TraceEvent::Block { actor, .. }
            | TraceEvent::Wake { actor }
            | TraceEvent::WaitCancelled { actor }
            | TraceEvent::Reset { actor } => *actor,
            TraceEvent::XStart { pid, .. }
            | TraceEvent::BufferedOut { pid, .. }
            | TraceEvent::TentativeIn { pid, .. }
            | TraceEvent::SelfIn { pid, .. }
            | TraceEvent::XCommit { pid, .. }
            | TraceEvent::XAbort { pid, .. }
            | TraceEvent::XRecover { pid, .. }
            | TraceEvent::NestedXStart { pid }
            | TraceEvent::Kill { pid }
            | TraceEvent::Respawn { pid }
            | TraceEvent::Done { pid } => *pid,
        }
    }
}

/// A completed run trace: the event sequence the checkers analyse.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Events in record order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replay the visible-space events and return the multiset of tuples
    /// visible at the end of the trace (sorted for determinism).
    pub fn final_space(&self) -> Vec<Tuple> {
        let mut space: Vec<Tuple> = Vec::new();
        for ev in &self.events {
            match ev {
                TraceEvent::OutVisible { tuple, .. } => space.push(tuple.clone()),
                TraceEvent::Take { tuple, .. } => {
                    if let Some(i) = space.iter().position(|t| t == tuple) {
                        space.swap_remove(i);
                    }
                }
                TraceEvent::Reset { .. } => space.clear(),
                _ => {}
            }
        }
        space.sort_by_key(crate::codec::encode_tuple);
        space
    }
}

thread_local! {
    /// Logical pid of the [`crate::Process`] currently driving the space on
    /// this thread; `0` when the space is used directly.
    static CURRENT_ACTOR: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Run `f` with trace events on this thread attributed to `actor`.
pub(crate) fn with_actor<R>(actor: u64, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT_ACTOR.with(|c| c.replace(actor));
    let r = f();
    CURRENT_ACTOR.with(|c| c.set(prev));
    r
}

/// The actor trace events on this thread are attributed to.
pub(crate) fn current_actor() -> u64 {
    CURRENT_ACTOR.with(|c| c.get())
}

/// A cloneable handle appending events to a shared per-run trace.
///
/// Install on a space with [`crate::TupleSpace::set_recorder`] (or through
/// [`crate::FarmConfig::recorder`] / `ParallelConfig` in the mining
/// crates), run the program, then [`Recorder::take`] the trace and hand it
/// to the checkers in [`crate::check`].
#[derive(Clone, Default)]
pub struct Recorder {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Don't dump the event buffer — it can hold tens of thousands of
        // tuples.
        f.debug_struct("Recorder")
            .field("events", &self.events.lock().len())
            .finish()
    }
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event.
    pub fn record(&self, ev: TraceEvent) {
        self.events.lock().push(ev);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the recorded events into a [`Trace`], leaving the recorder
    /// empty (ready for another run).
    pub fn take(&self) -> Trace {
        Trace {
            events: std::mem::take(&mut *self.events.lock()),
        }
    }

    /// Append the trace events `ev` stands for, attributing space events
    /// to this thread's current actor. Metrics-only events append nothing.
    pub(crate) fn record_event(&self, ev: Event<'_>) {
        let actor = current_actor();
        let mut events = self.events.lock();
        let ev = match ev {
            Event::Out { tuples, .. } => {
                return events.extend(each(tuples, |tuple| TraceEvent::OutVisible {
                    actor,
                    tuple,
                }));
            }
            Event::Found {
                withdrawn, tuples, ..
            } => {
                return events.extend(each(tuples, |tuple| match withdrawn {
                    true => TraceEvent::Take { actor, tuple },
                    false => TraceEvent::Read { actor, tuple },
                }));
            }
            Event::TentativeIn { pid, txn, tuples } => {
                return events.extend(each(tuples, |tuple| TraceEvent::TentativeIn {
                    pid,
                    txn,
                    tuple,
                }));
            }
            Event::SelfIn { pid, txn, tuples } => {
                return events.extend(each(tuples, |tuple| TraceEvent::SelfIn { pid, txn, tuple }));
            }
            Event::Restore { tuples } => {
                events.push(TraceEvent::Reset { actor });
                return events.extend(each(tuples, |tuple| TraceEvent::OutVisible {
                    actor,
                    tuple,
                }));
            }
            Event::Miss { op, template, .. } => TraceEvent::Miss {
                actor,
                op,
                template: template.clone(),
            },
            Event::Block { op, template } => TraceEvent::Block {
                actor,
                op,
                template: template.clone(),
            },
            Event::Wake { .. } => TraceEvent::Wake { actor },
            Event::WaitCancelled => TraceEvent::WaitCancelled { actor },
            Event::XStart { pid, txn } => TraceEvent::XStart { pid, txn },
            Event::NestedXStart { pid } => TraceEvent::NestedXStart { pid },
            Event::BufferedOut { pid, txn, tuple } => TraceEvent::BufferedOut {
                pid,
                txn,
                tuple: tuple.clone(),
            },
            Event::XCommit {
                pid,
                txn,
                published,
                consumed,
                continuation,
                ..
            } => TraceEvent::XCommit {
                pid,
                txn,
                published: published.to_vec(),
                consumed: consumed.to_vec(),
                continuation,
            },
            Event::XAbort {
                pid,
                txn,
                restored,
                dropped,
            } => TraceEvent::XAbort {
                pid,
                txn,
                restored: restored.to_vec(),
                dropped: dropped.to_vec(),
            },
            Event::XRecover { pid, found } => TraceEvent::XRecover { pid, found },
            Event::Kill { pid } => TraceEvent::Kill { pid },
            Event::Respawn { pid } => TraceEvent::Respawn { pid },
            Event::Done { pid, .. } => TraceEvent::Done { pid },
            Event::Spawn | Event::Flush { .. } | Event::Chan { .. } => return,
        };
        events.push(ev);
    }

    /// Copy the events recorded so far without draining.
    pub fn snapshot(&self) -> Trace {
        Trace {
            events: self.events.lock().clone(),
        }
    }
}

/// One trace event per tuple of a batch event.
fn each<'a>(
    tuples: &'a [Tuple],
    f: impl Fn(Tuple) -> TraceEvent + 'a,
) -> impl Iterator<Item = TraceEvent> + 'a {
    tuples.iter().cloned().map(f)
}
