//! PLinda processes: transactional access to the tuple space.
//!
//! A PLinda program is divided into a sequence of transactions executed
//! all-or-nothing (§2.4.6). A [`Process`] is the per-worker handle through
//! which those transactions run:
//!
//! * [`Process::xstart`] opens a transaction.
//! * [`Process::out`] buffers a tuple — invisible until commit.
//! * [`Process::in_`] / [`Process::rd`] withdraw/read matching tuples; a
//!   withdrawal is tentative and undone if the transaction aborts.
//! * [`Process::xcommit`] atomically publishes the buffered `out`s and
//!   stores the optional *continuation* tuple (the live local variables),
//!   which [`Process::xrecover`] retrieves after a failure.
//!
//! If the process is killed mid-transaction (workstation owner returned, or
//! machine crashed), every operation — including a blocked `in` — returns
//! [`PlindaError::Killed`]; the runtime then aborts the open transaction
//! (restoring withdrawn tuples, discarding buffered ones) and re-spawns the
//! process, which resumes from its last committed continuation.
//!
//! All tuple-space access flows through the space's
//! [`crate::backend::SpaceBackend`], so the same `Process` code drives the
//! in-process space and a remote `fpdm-spaced` broker. Over a remote
//! backend, transport and wire failures surface as
//! [`PlindaError::Transport`] / [`PlindaError::Codec`] from the
//! transactional operations instead of panics.

use crate::backend::capacity;
use crate::check::trace;
use crate::probe::Event;
use crate::space::TupleSpace;
use crate::template::Template;
use crate::value::Tuple;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Errors surfaced to PLinda process code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlindaError {
    /// The process was killed by the runtime (owner activity or injected
    /// failure). The worker function should propagate this immediately.
    Killed,
    /// A transactional operation was used outside `xstart`…`xcommit`.
    NoTransaction,
    /// `xstart` while a transaction is already open.
    NestedTransaction,
    /// Malformed wire data: a frame or tuple that failed to decode. A
    /// broker receiving this from a peer logs it and drops that
    /// connection; a client receiving it from a broker fails the
    /// operation.
    Codec(String),
    /// The connection to a remote tuple-space backend failed (broker
    /// died, socket closed, request rejected).
    Transport(String),
}

impl fmt::Display for PlindaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlindaError::Killed => write!(f, "process killed"),
            PlindaError::NoTransaction => write!(f, "operation outside a transaction"),
            PlindaError::NestedTransaction => write!(f, "xstart inside an open transaction"),
            PlindaError::Codec(msg) => write!(f, "malformed wire data: {msg}"),
            PlindaError::Transport(msg) => write!(f, "tuple space transport failure: {msg}"),
        }
    }
}

impl std::error::Error for PlindaError {}

impl From<crate::codec::CodecError> for PlindaError {
    fn from(e: crate::codec::CodecError) -> Self {
        PlindaError::Codec(e.0)
    }
}

/// Continuations of committed transactions, keyed by *logical* process id —
/// a re-spawned incarnation of a process keeps the id of the failed one, so
/// `xrecover` finds the predecessor's state (PLinda's continuation
/// committing, §2.4.6). This is the storage the in-process backend uses;
/// over a socket backend the broker holds the continuations, which is what
/// lets a re-spawned worker *OS process* recover.
#[derive(Default)]
pub struct ContinuationStore {
    map: Mutex<HashMap<u64, Tuple>>,
}

impl ContinuationStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `cont` as the continuation of logical process `pid`.
    pub fn put(&self, pid: u64, cont: Tuple) {
        self.map.lock().insert(pid, cont);
    }

    /// Latest committed continuation of `pid`, if any.
    pub fn get(&self, pid: u64) -> Option<Tuple> {
        self.map.lock().get(&pid).cloned()
    }

    /// Drop the continuation of `pid` (process completed normally).
    pub fn clear(&self, pid: u64) {
        self.map.lock().remove(&pid);
    }
}

/// Observable status of a process — the states of the PLinda "Process
/// Watch" window (Fig. 7.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessStatus {
    /// Created, not yet running user code.
    Dispatched,
    /// Executing.
    Running,
    /// Parked in a blocking `in`/`rd`.
    Blocked,
    /// A failed incarnation was re-spawned.
    FailureHandled,
    /// Completed normally.
    Done,
}

impl std::fmt::Display for ProcessStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcessStatus::Dispatched => "DISPATCHED",
            ProcessStatus::Running => "RUNNING",
            ProcessStatus::Blocked => "BLOCKED",
            ProcessStatus::FailureHandled => "FAILURE_HANDLED",
            ProcessStatus::Done => "DONE",
        };
        f.write_str(s)
    }
}

/// Shared, runtime-visible state of one process incarnation.
pub struct ProcessState {
    killed: AtomicBool,
    status: std::sync::atomic::AtomicU8,
}

impl ProcessState {
    pub(crate) fn new() -> Self {
        ProcessState {
            killed: AtomicBool::new(false),
            status: std::sync::atomic::AtomicU8::new(0),
        }
    }

    pub(crate) fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    pub(crate) fn revive(&self) {
        self.killed.store(false, Ordering::SeqCst);
        self.set_status(ProcessStatus::FailureHandled);
    }

    /// Has this incarnation been killed?
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    pub(crate) fn set_status(&self, st: ProcessStatus) {
        let v = match st {
            ProcessStatus::Dispatched => 0,
            ProcessStatus::Running => 1,
            ProcessStatus::Blocked => 2,
            ProcessStatus::FailureHandled => 3,
            ProcessStatus::Done => 4,
        };
        self.status.store(v, Ordering::SeqCst);
    }

    /// Current observable status.
    pub fn status(&self) -> ProcessStatus {
        match self.status.load(Ordering::SeqCst) {
            0 => ProcessStatus::Dispatched,
            1 => ProcessStatus::Running,
            2 => ProcessStatus::Blocked,
            3 => ProcessStatus::FailureHandled,
            _ => ProcessStatus::Done,
        }
    }
}

struct Txn {
    /// Tuples tentatively withdrawn; restored on abort.
    consumed: Vec<Tuple>,
    /// Tuples produced; published atomically on commit.
    outbox: Vec<Tuple>,
    /// Open time — only sampled while an instrumentation sink is
    /// installed; the ledger turns it into `txn.duration_ns` at commit.
    started: Option<std::time::Instant>,
}

/// A PLinda process handle: the `this`-pointer of the master/worker
/// pseudo-code listings throughout the dissertation (Figs. 3.4–3.10,
/// 4.4–4.7, 6.1–6.2).
pub struct Process {
    pid: u64,
    space: Arc<TupleSpace>,
    state: Arc<ProcessState>,
    txn: Option<Txn>,
    /// Transactions committed by this incarnation (diagnostics).
    committed: u64,
    /// Transactions ever opened by this incarnation (trace numbering).
    txn_seq: u64,
}

impl Process {
    pub(crate) fn new(pid: u64, space: Arc<TupleSpace>, state: Arc<ProcessState>) -> Self {
        Process {
            pid,
            space,
            state,
            txn: None,
            committed: 0,
            txn_seq: 0,
        }
    }

    /// A standalone transactional handle over `space` with logical pid
    /// `pid` — for worker *OS processes* attached to a remote broker (the
    /// `fpdm-worker` binary), where the respawning coordinator lives in a
    /// different process and failures arrive as SIGKILL rather than a
    /// cooperative kill flag. Continuations are keyed by `pid` in the
    /// broker, so a re-spawned process created with the same `pid` finds
    /// its predecessor's state via [`Process::xrecover`].
    pub fn attach(space: Arc<TupleSpace>, pid: u64) -> Self {
        Process::new(pid, space, Arc::new(ProcessState::new()))
    }

    /// Run a space operation with trace events attributed to this pid.
    fn as_actor<R>(&self, f: impl FnOnce(&TupleSpace) -> R) -> R {
        trace::with_actor(self.pid, || f(&self.space))
    }

    /// Logical process id (stable across re-spawns).
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// The shared tuple space (for non-transactional reads in tests).
    pub fn space(&self) -> &Arc<TupleSpace> {
        &self.space
    }

    /// Transactions committed by this incarnation.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    fn check_alive(&self) -> Result<(), PlindaError> {
        if self.state.is_killed() {
            Err(PlindaError::Killed)
        } else {
            Ok(())
        }
    }

    /// Open a transaction. All subsequent ops run inside it until
    /// [`Process::xcommit`]. An `xstart` while a transaction is already
    /// open is a protocol violation: it returns
    /// [`PlindaError::NestedTransaction`] (and records the violation in
    /// the trace) instead of killing the worker thread, so both callers
    /// and the `plinda::check` analyzers can observe it.
    pub fn xstart(&mut self) -> Result<(), PlindaError> {
        if self.txn.is_some() {
            self.space.emit(Event::NestedXStart { pid: self.pid });
            return Err(PlindaError::NestedTransaction);
        }
        self.space.backend().txn_begin(self.pid)?;
        self.txn_seq += 1;
        let observed = self.space.emit(Event::XStart {
            pid: self.pid,
            txn: self.txn_seq,
        });
        self.txn = Some(Txn {
            consumed: Vec::new(),
            outbox: Vec::new(),
            started: observed.then(std::time::Instant::now),
        });
        Ok(())
    }

    /// Is a transaction currently open?
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// `out` inside the open transaction: buffered until commit.
    pub fn out(&mut self, t: Tuple) {
        match &mut self.txn {
            Some(txn) => {
                self.space.emit(Event::BufferedOut {
                    pid: self.pid,
                    txn: self.txn_seq,
                    tuple: &t,
                });
                txn.outbox.push(t);
            }
            // Outside a transaction, fall back to a direct (immediately
            // visible) out — PLinda masters use this for poison tuples.
            None => self.as_actor(|s| s.out(t)),
        }
    }

    /// `in`: blocking withdrawal. Returns [`PlindaError::Killed`] if this
    /// process is killed while blocked or before the call.
    pub fn in_(&mut self, tmpl: Template) -> Result<Tuple, PlindaError> {
        Ok(self.retrieve(&tmpl, true, 1, true)?.swap_remove(0))
    }

    /// Bulk `in`: blocking withdrawal of up to `max` matching tuples in
    /// one backend round-trip — the transport optimization behind
    /// prefetching farm workers. Blocks like [`Process::in_`] until at
    /// least one tuple is available; a successful return holds between 1
    /// and `max` tuples. The transaction's own buffered outs are consumed
    /// first (self-in), then the space tops the batch up.
    pub fn in_batch(&mut self, tmpl: Template, max: usize) -> Result<Vec<Tuple>, PlindaError> {
        self.retrieve(&tmpl, true, max, true)
    }

    /// `inp`: non-blocking withdrawal.
    pub fn inp(&mut self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError> {
        Ok(self.retrieve(tmpl, true, 1, false)?.pop())
    }

    /// `rd`: blocking read (copy).
    pub fn rd(&mut self, tmpl: Template) -> Result<Tuple, PlindaError> {
        Ok(self.retrieve(&tmpl, false, 1, true)?.swap_remove(0))
    }

    /// `rdp`: non-blocking read.
    pub fn rdp(&mut self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError> {
        Ok(self.retrieve(tmpl, false, 1, false)?.pop())
    }

    /// Every retrieval. A transaction's own buffered outs are visible to
    /// it (PLinda processes routinely `out` then `in` within one
    /// transaction), so the outbox serves first: a take withdraws from it
    /// (self-in), a read copies. The space serves the rest — a `wait` if
    /// the outbox found nothing and the call blocks, else a `poll` for
    /// what remains — and its withdrawals become tentative. A blocking
    /// call returns at least one tuple.
    fn retrieve(
        &mut self,
        tmpl: &Template,
        take: bool,
        max: usize,
        block: bool,
    ) -> Result<Vec<Tuple>, PlindaError> {
        self.check_alive()?;
        let max = capacity(take, max);
        let mut got = Vec::new();
        if let Some(txn) = &mut self.txn {
            while got.len() < max {
                match txn.outbox.iter().position(|t| tmpl.matches(t)) {
                    Some(i) if take => got.push(txn.outbox.remove(i)),
                    Some(i) => got.push(txn.outbox[i].clone()),
                    None => break,
                }
            }
        }
        if take && !got.is_empty() {
            self.space.emit(Event::SelfIn {
                pid: self.pid,
                txn: self.txn_seq,
                tuples: &got,
            });
        }
        if got.len() == max {
            return Ok(got);
        }
        let from_space = if got.is_empty() && block {
            self.state.set_status(ProcessStatus::Blocked);
            let waited =
                self.as_actor(|s| s.backend().wait(tmpl, take, max, Some(&self.state.killed)));
            self.state.set_status(ProcessStatus::Running);
            waited?.ok_or(PlindaError::Killed)?
        } else {
            self.as_actor(|s| s.backend().poll(tmpl, take, max - got.len()))?
        };
        if let Some(txn) = self.txn.as_mut().filter(|_| take && !from_space.is_empty()) {
            self.space.emit(Event::TentativeIn {
                pid: self.pid,
                txn: self.txn_seq,
                tuples: &from_space,
            });
            txn.consumed.extend_from_slice(&from_space);
        }
        got.extend(from_space);
        Ok(got)
    }

    /// Commit the open transaction: atomically publish buffered `out`s and
    /// durably record `continuation` (the live local variables) for
    /// [`Process::xrecover`]. The publish and the continuation record are
    /// one backend step — over a socket backend, one wire request — so a
    /// failure can never separate them. A kill that lands before the
    /// commit point aborts instead — exactly PLinda's all-or-nothing
    /// guarantee.
    pub fn xcommit(&mut self, continuation: Option<Tuple>) -> Result<(), PlindaError> {
        let txn = self.txn.take().ok_or(PlindaError::NoTransaction)?;
        if self.space.schedule().is_some_and(|s| s.commit_point()) {
            // The interleaving explorer's kill for this commit boundary.
            self.state.kill();
            self.space.emit(Event::Kill { pid: self.pid });
        }
        if self.state.is_killed() {
            // The failure happened before commit: abort. A transport
            // failure here is survivable: the broker restores a dead
            // connection's tentative withdrawals itself.
            self.abort_txn(txn);
            return Err(PlindaError::Killed);
        }
        self.space.emit(Event::XCommit {
            pid: self.pid,
            txn: self.txn_seq,
            published: &txn.outbox,
            consumed: &txn.consumed,
            continuation: continuation.is_some(),
            started: txn.started,
        });
        self.as_actor(|s| s.backend().txn_commit(self.pid, txn.outbox, continuation))?;
        self.committed += 1;
        Ok(())
    }

    /// Retrieve the continuation of the last committed transaction of this
    /// logical process, if a previous incarnation failed after committing.
    pub fn xrecover(&self) -> Option<Tuple> {
        let cont = match self.space.backend().cont_get(self.pid) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("plinda: xrecover({}) failed: {e}", self.pid);
                None
            }
        };
        self.space.emit(Event::XRecover {
            pid: self.pid,
            found: cont.is_some(),
        });
        cont
    }

    /// Abort the open transaction (if any): restore withdrawn tuples,
    /// discard buffered ones. Called by the runtime after a kill.
    pub(crate) fn abort(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.abort_txn(txn);
        }
    }

    /// Emit `XAbort`, then restore the tentative withdrawals — in that
    /// order, so the transaction is closed in the trace when the restores
    /// become visible.
    fn abort_txn(&self, txn: Txn) {
        self.space.emit(Event::XAbort {
            pid: self.pid,
            txn: self.txn_seq,
            restored: &txn.consumed,
            dropped: &txn.outbox,
        });
        let _ = self.as_actor(|s| s.backend().txn_abort(self.pid, txn.consumed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::field;
    use crate::tup;

    fn mk() -> (Process, Arc<TupleSpace>, Arc<ProcessState>) {
        let space = Arc::new(TupleSpace::new());
        let state = Arc::new(ProcessState::new());
        let p = Process::new(7, Arc::clone(&space), Arc::clone(&state));
        (p, space, state)
    }

    fn t_task() -> Template {
        Template::new(vec![field::val("task"), field::int()])
    }

    #[test]
    fn outs_invisible_until_commit() {
        let (mut p, space, _) = mk();
        p.xstart().unwrap();
        p.out(tup!["task", 1]);
        assert_eq!(space.len(), 0);
        p.xcommit(None).unwrap();
        assert_eq!(space.len(), 1);
    }

    #[test]
    fn own_outs_visible_within_txn() {
        let (mut p, space, _) = mk();
        p.xstart().unwrap();
        p.out(tup!["task", 5]);
        let got = p.inp(&t_task()).unwrap().unwrap();
        assert_eq!(got.int(1), 5);
        p.xcommit(None).unwrap();
        // Consumed its own buffered out before commit: nothing published.
        assert_eq!(space.len(), 0);
    }

    #[test]
    fn abort_restores_consumed_and_drops_outbox() {
        let (mut p, space, state) = mk();
        space.out(tup!["task", 1]);
        p.xstart().unwrap();
        let _ = p.in_(t_task()).unwrap();
        p.out(tup!["task", 99]);
        assert_eq!(space.len(), 0);
        state.kill();
        p.abort();
        assert_eq!(space.len(), 1);
        let back = space.inp(&t_task()).unwrap();
        assert_eq!(back.int(1), 1, "original tuple restored, not the outbox");
    }

    /// Every retrieval against `k` outbox and `m` space matches: the
    /// outbox serves first, the space tops up, an abort restores exactly
    /// the space's withdrawals and drops the outbox, and a commit
    /// publishes what was neither taken nor dropped.
    #[test]
    fn retrievals_serve_the_outbox_first_and_abort_or_commit_the_rest() {
        for op in ["in_", "in_batch", "inp", "rd", "rdp"] {
            for (k, m) in [(0, 0), (0, 2), (1, 0), (1, 2), (3, 0), (3, 2)] {
                for commit in [false, true] {
                    retrieve_case(op, k, m, commit);
                }
            }
        }
    }

    fn retrieve_case(op: &str, k: i64, m: i64, commit: bool) {
        const BATCH: usize = 4;
        let (take, blocks) = (!op.starts_with("rd"), !op.ends_with('p'));
        if blocks && k + m == 0 {
            return; // would park forever
        }
        let (mut p, space, state) = mk();
        let in_space: Vec<i64> = (100..100 + m).collect();
        for &i in &in_space {
            space.out(tup!["task", i]);
        }
        p.xstart().unwrap();
        for i in 0..k {
            p.out(tup!["task", i]);
        }
        let got: Vec<i64> = match op {
            "in_" => vec![p.in_(t_task()).unwrap()],
            "in_batch" => p.in_batch(t_task(), BATCH).unwrap(),
            "inp" => p.inp(&t_task()).unwrap().into_iter().collect(),
            "rd" => vec![p.rd(t_task()).unwrap()],
            _ => p.rdp(&t_task()).unwrap().into_iter().collect(),
        }
        .iter()
        .map(|t| t.int(1))
        .collect();
        let case = format!("{op} k={k} m={m} commit={commit}: got {got:?}");
        let cap = if op == "in_batch" { BATCH } else { 1 };
        let from_outbox = (k as usize).min(cap);
        let from_space = (m as usize).min(cap - from_outbox);
        assert_eq!(
            got.iter().filter(|&&i| i < 100).count(),
            from_outbox,
            "{case}"
        );
        assert_eq!(got.len(), from_outbox + from_space, "{case}");
        let want: Vec<i64> = if commit {
            p.xcommit(None).unwrap();
            let mut left: Vec<i64> = (0..k).chain(in_space).collect();
            if take {
                left.retain(|i| !got.contains(i));
            }
            left
        } else {
            state.kill();
            p.abort();
            in_space
        };
        let mut have: Vec<i64> = space.snapshot().iter().map(|t| t.int(1)).collect();
        have.sort_unstable();
        assert_eq!(have, want, "{case}");
    }

    #[test]
    fn kill_before_commit_aborts() {
        let (mut p, space, state) = mk();
        space.out(tup!["task", 1]);
        p.xstart().unwrap();
        let _ = p.in_(t_task()).unwrap();
        p.out(tup!["done", 1]);
        state.kill();
        assert_eq!(p.xcommit(None), Err(PlindaError::Killed));
        assert_eq!(space.len(), 1, "consumed tuple restored");
        assert_eq!(space.count(&t_task()), 1);
    }

    #[test]
    fn continuation_roundtrip() {
        let (mut p, _, _) = mk();
        assert!(p.xrecover().is_none());
        p.xstart().unwrap();
        p.xcommit(Some(tup![42, "state"])).unwrap();
        let c = p.xrecover().unwrap();
        assert_eq!(c.int(0), 42);
    }

    #[test]
    fn attached_process_shares_continuations_by_pid() {
        let space = Arc::new(TupleSpace::new());
        let mut first = Process::attach(Arc::clone(&space), 31);
        first.xstart().unwrap();
        first.xcommit(Some(tup![9])).unwrap();
        drop(first);
        // A second incarnation with the same logical pid recovers it.
        let second = Process::attach(space, 31);
        assert_eq!(second.xrecover().unwrap().int(0), 9);
    }

    #[test]
    fn ops_after_kill_fail() {
        let (mut p, _, state) = mk();
        state.kill();
        assert_eq!(p.in_(t_task()), Err(PlindaError::Killed));
        assert_eq!(p.rd(t_task()), Err(PlindaError::Killed));
    }

    #[test]
    fn xcommit_without_xstart_errors() {
        let (mut p, _, _) = mk();
        assert_eq!(p.xcommit(None), Err(PlindaError::NoTransaction));
    }

    #[test]
    fn codec_errors_convert_to_typed_plinda_errors() {
        let e: PlindaError = crate::codec::CodecError("bad magic".into()).into();
        assert_eq!(e, PlindaError::Codec("bad magic".into()));
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn nested_xstart_is_an_error_not_a_panic() {
        let (mut p, space, _) = mk();
        let rec = crate::check::Recorder::new();
        space.set_recorder(Some(rec.clone()));
        p.xstart().unwrap();
        p.out(tup!["task", 1]);
        // The violation is surfaced as an error and recorded in the trace;
        // the open transaction is left intact and can still commit.
        assert_eq!(p.xstart(), Err(PlindaError::NestedTransaction));
        assert!(p.in_txn());
        p.xcommit(None).unwrap();
        assert_eq!(space.len(), 1);
        let trace = rec.take();
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, crate::TraceEvent::NestedXStart { pid: 7 })));
    }
}
