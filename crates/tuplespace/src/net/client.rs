//! The Unix-socket client implementation of [`SpaceBackend`].
//!
//! One [`SocketBackend`] instance is shared by every process of a runtime
//! (behind the [`crate::TupleSpace`] facade), but sockets are not: each OS
//! thread lazily opens its *own* connection to the broker, held in
//! thread-local storage. That gives the broker exactly the unit it tracks
//! transactions by — a PLinda process is one thread, so "connection died"
//! equals "process died", and the broker can restore that process's
//! tentative withdrawals (see [`super::broker`]).
//!
//! The protocol is strict request-response per connection, except blocking
//! waits: an `In`/`Rd` whose response is deferred is polled with a short
//! read timeout (~20 ms) so the cancel flag — the runtime's kill signal —
//! is observed promptly; [`SpaceBackend::kick`] is therefore a no-op here.
//! A cancel that races an arriving tuple is resolved deterministically:
//! the client consumes both responses, and if the wait won the race it
//! returns the tuple to the space with a compensating `out` (or `out_all`
//! for a bulk wait) before reporting the cancellation.
//!
//! ## Batching
//!
//! Three transport optimizations close most of the local/socket gap:
//!
//! * **Deferred outs** (`out_deferred`/`out_all_deferred`) are encoded
//!   into a per-connection write-coalescing buffer and cost no round-trip
//!   and no syscall of their own: the buffered frames go to the kernel in
//!   the same `write` as the next request. Because every request frame is
//!   sent behind the buffered deferred frames, and the broker applies a
//!   connection's parked outs before answering anything else, program
//!   order is preserved structurally — a blocking wait can never overtake
//!   this connection's own deferred outs. After `DEFER_WINDOW` unacked
//!   tuples the client forces a `Flush` round-trip.
//! * **Bulk takes** (`inp_batch`/`in_batch_cancellable`) withdraw up to
//!   `max` matching tuples in one round-trip.
//! * **Pipelined batches** (`ReqBody::Batch`) carry several
//!   correlation-id'd requests in one frame answered by one vectored
//!   response; `txn_commit` uses this to flush deferred outs and commit
//!   in a single round-trip.
//!
//! Instrumentation events are emitted *client-side*, the same events the
//! local backend emits, so the `fpdm.metrics.v1` ledger and the `check`
//! analyzers see the same shape either way. Partition occupancy is broker
//! state, so these events carry none and the ledger keeps no occupancy
//! gauges for a socket-backed space.

use super::frame::{encode_frame, FrameEvent, FrameReader};
use super::proto::{Req, ReqBody, Resp, RespBody};
use crate::backend::SpaceBackend;
use crate::check::trace::OpKind;
use crate::probe::{Event, Probe};
use crate::process::PlindaError;
use crate::template::Template;
use crate::value::Tuple;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval for blocking waits: the bound on how late a socket-backed
/// wait observes its cancel flag.
const POLL: Duration = Duration::from_millis(20);

/// How many deferred-out tuples may ride unacknowledged before the client
/// forces a `Flush` round-trip, bounding broker-side parked memory.
const DEFER_WINDOW: u64 = 256;

static NEXT_BACKEND_ID: AtomicU64 = AtomicU64::new(1);

struct Conn {
    stream: UnixStream,
    reader: FrameReader,
    seq: u64,
    /// Write-coalescing buffer: deferred-out frames accumulate here and go
    /// to the kernel in one `write` together with the next request frame.
    wbuf: Vec<u8>,
    /// Pipelined responses that arrived while waiting for a different
    /// correlation id, keyed by seq.
    inflight: HashMap<u64, RespBody>,
    /// Deferred tuples sent but not yet acknowledged by a `Flush`.
    unacked_deferred: u64,
}

thread_local! {
    /// This thread's connections, keyed by backend instance id (a thread
    /// may touch several spaces, e.g. a test driving two brokers).
    static CONNS: RefCell<HashMap<u64, Conn>> = RefCell::new(HashMap::new());
}

/// Client half of the socket backend; construct via
/// [`crate::TupleSpace::connect_unix`].
pub struct SocketBackend {
    id: u64,
    path: PathBuf,
    probe: Arc<Probe>,
}

impl SocketBackend {
    /// Connect to the broker at `path`. Fails fast if no broker listens
    /// there; per-thread working connections are opened lazily.
    pub(crate) fn connect(path: &Path, probe: Arc<Probe>) -> std::io::Result<Self> {
        // Probe connection: surface "no broker" at setup, not first op.
        drop(UnixStream::connect(path)?);
        Ok(SocketBackend {
            id: NEXT_BACKEND_ID.fetch_add(1, Ordering::SeqCst),
            path: path.to_owned(),
            probe,
        })
    }

    /// Run `f` on this thread's connection, opening it if needed. On a
    /// transport error the connection is discarded so the next operation
    /// reconnects (a respawned broker is picked up transparently).
    fn with_conn<R>(
        &self,
        f: impl FnOnce(&mut Conn) -> Result<R, PlindaError>,
    ) -> Result<R, PlindaError> {
        CONNS.with(|conns| {
            let mut conns = conns.borrow_mut();
            let conn = match conns.entry(self.id) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let stream = UnixStream::connect(&self.path).map_err(|err| {
                        PlindaError::Transport(format!(
                            "connect to {} failed: {err}",
                            self.path.display()
                        ))
                    })?;
                    stream.set_read_timeout(Some(POLL)).map_err(|err| {
                        PlindaError::Transport(format!("set_read_timeout: {err}"))
                    })?;
                    e.insert(Conn {
                        stream,
                        reader: FrameReader::new(),
                        seq: 0,
                        wbuf: Vec::new(),
                        inflight: HashMap::new(),
                        unacked_deferred: 0,
                    })
                }
            };
            let out = f(conn);
            if matches!(
                out,
                Err(PlindaError::Transport(_)) | Err(PlindaError::Codec(_))
            ) {
                conns.remove(&self.id);
            }
            out
        })
    }

    /// One strict request-response exchange.
    fn rpc(&self, body: ReqBody) -> Result<RespBody, PlindaError> {
        self.with_conn(|conn| {
            conn.seq += 1;
            let seq = conn.seq;
            send_req(conn, &Req { seq, body })?;
            let resp = recv_seq(conn, seq)?;
            match resp {
                RespBody::Err(msg) => Err(PlindaError::Transport(format!(
                    "broker rejected request: {msg}"
                ))),
                other => Ok(other),
            }
        })
    }

    /// Blocking `in`/`rd`/`in_batch` with cancellation, over the polled
    /// wait protocol. `bulk: Some(max)` sends
    /// an `InBatch` answered with `Tuples`; `None` sends `In`/`Rd`
    /// answered with `Tuple`. A successful bulk return holds 1..=max
    /// tuples.
    fn blocking_wait(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
        withdraw: bool,
        bulk: Option<usize>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError> {
        let cancelled = |c: Option<&AtomicBool>| c.is_some_and(|c| c.load(Ordering::SeqCst));
        if cancelled(cancel) {
            self.probe.emit(Event::WaitCancelled);
            return Ok(None);
        }
        let (mut blocked, mut block_start) = (false, None);
        let got = self.with_conn(|conn| {
            conn.seq += 1;
            let wait_seq = conn.seq;
            send_req(
                conn,
                &Req {
                    seq: wait_seq,
                    body: match bulk {
                        Some(max) => ReqBody::InBatch {
                            tmpl: tmpl.clone(),
                            max: max as u64,
                        },
                        None if withdraw => ReqBody::In(tmpl.clone()),
                        None => ReqBody::Rd(tmpl.clone()),
                    },
                },
            )?;
            loop {
                if let Some(body) = conn.inflight.remove(&wait_seq) {
                    return finish_wait(body, bulk);
                }
                match conn.reader.read_from(&mut conn.stream)? {
                    FrameEvent::Frame(payload) => {
                        let resp = Resp::decode(&payload).map_err(PlindaError::from)?;
                        if resp.seq != wait_seq {
                            // A pipelined response for another exchange on
                            // this connection; keep it for its owner.
                            conn.inflight.insert(resp.seq, resp.body);
                            continue;
                        }
                        return finish_wait(resp.body, bulk);
                    }
                    FrameEvent::TimedOut => {
                        if !blocked {
                            blocked = true;
                            let op = if withdraw { OpKind::In } else { OpKind::Rd };
                            block_start = self
                                .probe
                                .emit(Event::Block { op, template: tmpl })
                                .then(Instant::now);
                        }
                        if cancelled(cancel) {
                            return cancel_wait(conn, wait_seq, bulk.is_some());
                        }
                    }
                    FrameEvent::Eof => {
                        return Err(PlindaError::Transport("broker closed connection".into()))
                    }
                }
            }
        })?;
        match got {
            Some(ts) => {
                // A cancel may have raced the arrival; `cancel_wait` already
                // returned the tuples to the space in that case and reported
                // None, so reaching here means the wait truly succeeded.
                if blocked {
                    self.probe.emit(Event::Wake { since: block_start });
                }
                self.probe.emit(Event::Found {
                    withdrawn: withdraw,
                    tuples: &ts,
                    occupancy: None,
                    batch: bulk.is_some(),
                });
                Ok(Some(ts))
            }
            None => {
                self.probe.emit(Event::WaitCancelled);
                Ok(None)
            }
        }
    }

    /// Emit the outcome of a non-blocking `inp`/`rdp`: `Found` for `got`,
    /// or a `Miss` when it is empty.
    fn emit_poll(&self, op: OpKind, tmpl: &Template, got: &[Tuple], batch: bool) {
        self.probe.emit(if got.is_empty() {
            Event::Miss {
                op,
                template: tmpl,
                batch,
            }
        } else {
            Event::Found {
                withdrawn: op == OpKind::Inp,
                tuples: got,
                occupancy: None,
                batch,
            }
        });
    }

    /// Emit the visibility of `tuples` before they are sent, mirroring the
    /// local backend's "emit at the visibility point" — the broker makes
    /// them visible on receipt, and this client observes no earlier point.
    /// An empty batch emits nothing.
    fn emit_out(&self, tuples: &[Tuple], deferred: bool) {
        if tuples.is_empty() {
            return;
        }
        self.probe.emit(Event::Out {
            tuples,
            occupancy: None,
            deferred,
        });
    }
}

/// Classify a wait response for [`SocketBackend::blocking_wait`].
fn finish_wait(body: RespBody, bulk: Option<usize>) -> Result<Option<Vec<Tuple>>, PlindaError> {
    match (bulk, body) {
        (None, RespBody::Tuple(Some(t))) => Ok(Some(vec![t])),
        (Some(_), RespBody::Tuples(ts)) if !ts.is_empty() => Ok(Some(ts)),
        (_, other) => Err(PlindaError::Transport(format!(
            "unexpected blocking-wait response: {other:?}"
        ))),
    }
}

/// Queue `req` behind any coalesced deferred frames and write everything
/// to the kernel in one `write`.
fn send_req(conn: &mut Conn, req: &Req) -> Result<(), PlindaError> {
    let frame = encode_frame(&req.encode());
    conn.wbuf.extend_from_slice(&frame);
    write_wbuf(conn)
}

fn write_wbuf(conn: &mut Conn) -> Result<(), PlindaError> {
    if conn.wbuf.is_empty() {
        return Ok(());
    }
    let res = conn
        .stream
        .write_all(&conn.wbuf)
        .map_err(|e| PlindaError::Transport(format!("write failed: {e}")));
    conn.wbuf.clear();
    res
}

/// Read until the response for `seq` arrives, parking responses for other
/// correlation ids in the in-flight table (and consulting it first).
fn recv_seq(conn: &mut Conn, seq: u64) -> Result<RespBody, PlindaError> {
    if let Some(body) = conn.inflight.remove(&seq) {
        return Ok(body);
    }
    loop {
        match conn.reader.read_from(&mut conn.stream)? {
            FrameEvent::Frame(payload) => {
                let resp = Resp::decode(&payload).map_err(PlindaError::from)?;
                if resp.seq == seq {
                    return Ok(resp.body);
                }
                conn.inflight.insert(resp.seq, resp.body);
            }
            FrameEvent::TimedOut => continue,
            FrameEvent::Eof => {
                return Err(PlindaError::Transport("broker closed connection".into()))
            }
        }
    }
}

/// Force a `Flush` round-trip: every parked deferred out of this
/// connection is applied and acknowledged.
fn flush_conn(conn: &mut Conn, probe: &Probe) -> Result<u64, PlindaError> {
    conn.seq += 1;
    let seq = conn.seq;
    send_req(
        conn,
        &Req {
            seq,
            body: ReqBody::Flush,
        },
    )?;
    match recv_seq(conn, seq)? {
        RespBody::Num(n) => {
            conn.unacked_deferred = 0;
            probe.emit(Event::Flush {
                acked: n,
                pipelined: false,
            });
            Ok(n)
        }
        RespBody::Err(msg) => Err(PlindaError::Transport(format!(
            "broker rejected flush: {msg}"
        ))),
        other => Err(unexpected("flush", &other)),
    }
}

/// Revoke wait `wait_seq`. Returns `None` if the cancellation landed; if
/// the wait won the race the tuples are returned to the space with an
/// *awaited* compensating `out`/`out_all` — deferred compensation could be
/// discarded with a dying connection, losing tuples — and `None` is still
/// returned (the caller is being killed and must not consume them). Never
/// returns `Some` today, but keeps the tuple-flow explicit for the reader.
fn cancel_wait(
    conn: &mut Conn,
    wait_seq: u64,
    bulk: bool,
) -> Result<Option<Vec<Tuple>>, PlindaError> {
    conn.seq += 1;
    let cancel_seq = conn.seq;
    send_req(
        conn,
        &Req {
            seq: cancel_seq,
            body: ReqBody::Cancel { wait_seq },
        },
    )?;
    let mut wait_outcome: Option<Option<Vec<Tuple>>> = None;
    let mut cancel_acked = false;
    while wait_outcome.is_none() || !cancel_acked {
        if wait_outcome.is_none() {
            if let Some(body) = conn.inflight.remove(&wait_seq) {
                wait_outcome = Some(resolve_wait(body, bulk)?);
                continue;
            }
        }
        if !cancel_acked && conn.inflight.remove(&cancel_seq).is_some() {
            cancel_acked = true;
            continue;
        }
        match conn.reader.read_from(&mut conn.stream)? {
            FrameEvent::Frame(payload) => {
                let resp = Resp::decode(&payload).map_err(PlindaError::from)?;
                if resp.seq == wait_seq {
                    wait_outcome = Some(resolve_wait(resp.body, bulk)?);
                } else if resp.seq == cancel_seq {
                    cancel_acked = true;
                } else {
                    conn.inflight.insert(resp.seq, resp.body);
                }
            }
            FrameEvent::TimedOut => continue,
            FrameEvent::Eof => {
                return Err(PlindaError::Transport("broker closed connection".into()))
            }
        }
    }
    if let Some(Some(mut ts)) = wait_outcome {
        // The wait won the race: compensate by putting the tuples back.
        conn.seq += 1;
        let seq = conn.seq;
        send_req(
            conn,
            &Req {
                seq,
                body: if bulk {
                    ReqBody::OutAll(ts)
                } else {
                    ReqBody::Out(ts.remove(0))
                },
            },
        )?;
        recv_seq(conn, seq)?;
    }
    Ok(None)
}

/// Classify the resolution frame of a cancelled wait.
fn resolve_wait(body: RespBody, bulk: bool) -> Result<Option<Vec<Tuple>>, PlindaError> {
    match (bulk, body) {
        (_, RespBody::Cancelled) => Ok(None),
        (false, RespBody::Tuple(Some(t))) => Ok(Some(vec![t])),
        (true, RespBody::Tuples(ts)) if !ts.is_empty() => Ok(Some(ts)),
        (_, other) => Err(PlindaError::Transport(format!(
            "unexpected wait resolution: {other:?}"
        ))),
    }
}

impl SpaceBackend for SocketBackend {
    fn kind(&self) -> &'static str {
        "unix-socket"
    }

    fn out(&self, t: Tuple) -> Result<(), PlindaError> {
        self.emit_out(std::slice::from_ref(&t), false);
        match self.rpc(ReqBody::Out(t))? {
            RespBody::Ok => Ok(()),
            other => Err(unexpected("out", &other)),
        }
    }

    fn out_all(&self, ts: Vec<Tuple>) -> Result<(), PlindaError> {
        if ts.is_empty() {
            return Ok(());
        }
        self.emit_out(&ts, false);
        match self.rpc(ReqBody::OutAll(ts))? {
            RespBody::Ok => Ok(()),
            other => Err(unexpected("out_all", &other)),
        }
    }

    fn inp(&self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError> {
        match self.rpc(ReqBody::Inp(tmpl.clone()))? {
            RespBody::Tuple(got) => {
                self.emit_poll(OpKind::Inp, tmpl, got.as_slice(), false);
                Ok(got)
            }
            other => Err(unexpected("inp", &other)),
        }
    }

    fn rdp(&self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError> {
        match self.rpc(ReqBody::Rdp(tmpl.clone()))? {
            RespBody::Tuple(got) => {
                self.emit_poll(OpKind::Rdp, tmpl, got.as_slice(), false);
                Ok(got)
            }
            other => Err(unexpected("rdp", &other)),
        }
    }

    fn in_cancellable(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Tuple>, PlindaError> {
        Ok(self
            .blocking_wait(tmpl, cancel, true, None)?
            .and_then(|mut got| got.pop()))
    }

    fn rd_cancellable(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Tuple>, PlindaError> {
        Ok(self
            .blocking_wait(tmpl, cancel, false, None)?
            .and_then(|mut got| got.pop()))
    }

    fn out_deferred(&self, t: Tuple) -> Result<(), PlindaError> {
        // Emitted at enqueue, like `out`: within this connection the tuple
        // is observable by every later operation (the broker applies
        // parked outs before answering anything), and no other process can
        // distinguish "parked" from "in flight".
        self.emit_out(std::slice::from_ref(&t), true);
        self.with_conn(|conn| {
            conn.seq += 1;
            let seq = conn.seq;
            let req = Req {
                seq,
                body: ReqBody::OutDeferred(t),
            };
            // Fire and forget: coalesce into wbuf, no response to await.
            conn.wbuf.extend_from_slice(&encode_frame(&req.encode()));
            conn.unacked_deferred += 1;
            if conn.unacked_deferred >= DEFER_WINDOW {
                flush_conn(conn, &self.probe)?;
            }
            Ok(())
        })
    }

    fn out_all_deferred(&self, ts: Vec<Tuple>) -> Result<(), PlindaError> {
        if ts.is_empty() {
            return Ok(());
        }
        self.emit_out(&ts, true);
        let n = ts.len() as u64;
        self.with_conn(|conn| {
            conn.seq += 1;
            let seq = conn.seq;
            let req = Req {
                seq,
                body: ReqBody::OutAllDeferred(ts),
            };
            conn.wbuf.extend_from_slice(&encode_frame(&req.encode()));
            conn.unacked_deferred += n;
            if conn.unacked_deferred >= DEFER_WINDOW {
                flush_conn(conn, &self.probe)?;
            }
            Ok(())
        })
    }

    fn flush(&self) -> Result<u64, PlindaError> {
        self.with_conn(|conn| flush_conn(conn, &self.probe))
    }

    fn inp_batch(&self, tmpl: &Template, max: usize) -> Result<Vec<Tuple>, PlindaError> {
        if max == 0 {
            return Ok(Vec::new());
        }
        match self.rpc(ReqBody::InpBatch {
            tmpl: tmpl.clone(),
            max: max as u64,
        })? {
            RespBody::Tuples(ts) => {
                self.emit_poll(OpKind::Inp, tmpl, &ts, true);
                Ok(ts)
            }
            other => Err(unexpected("inp_batch", &other)),
        }
    }

    fn in_batch_cancellable(
        &self,
        tmpl: &Template,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError> {
        self.blocking_wait(tmpl, cancel, true, (max > 1).then_some(max))
    }

    fn kick(&self) {
        // Socket waits poll their cancel flag every POLL interval; there is
        // no condvar to notify.
    }

    fn len(&self) -> Result<usize, PlindaError> {
        match self.rpc(ReqBody::Len)? {
            RespBody::Num(n) => Ok(n as usize),
            other => Err(unexpected("len", &other)),
        }
    }

    fn count(&self, tmpl: &Template) -> Result<usize, PlindaError> {
        match self.rpc(ReqBody::Count(tmpl.clone()))? {
            RespBody::Num(n) => Ok(n as usize),
            other => Err(unexpected("count", &other)),
        }
    }

    fn has_match(&self, tmpl: &Template) -> Result<bool, PlindaError> {
        match self.rpc(ReqBody::HasMatch(tmpl.clone()))? {
            RespBody::Bool(b) => Ok(b),
            other => Err(unexpected("has_match", &other)),
        }
    }

    fn snapshot(&self) -> Result<Vec<Tuple>, PlindaError> {
        match self.rpc(ReqBody::Snapshot)? {
            RespBody::Tuples(ts) => Ok(ts),
            other => Err(unexpected("snapshot", &other)),
        }
    }

    fn restore(&self, tuples: Vec<Tuple>) -> Result<(), PlindaError> {
        // The broker places the tuples; this client observes only the
        // reset.
        self.probe.emit(Event::Restore { tuples: &[] });
        match self.rpc(ReqBody::Restore(tuples))? {
            RespBody::Ok => Ok(()),
            other => Err(unexpected("restore", &other)),
        }
    }

    fn txn_begin(&self, pid: u64) -> Result<(), PlindaError> {
        match self.rpc(ReqBody::TxnBegin { pid })? {
            RespBody::Ok => Ok(()),
            other => Err(unexpected("txn_begin", &other)),
        }
    }

    fn txn_commit(
        &self,
        pid: u64,
        publish: Vec<Tuple>,
        cont: Option<Tuple>,
    ) -> Result<(), PlindaError> {
        self.emit_out(&publish, false);
        let needs_flush = self.with_conn(|conn| Ok(conn.unacked_deferred > 0))?;
        if !needs_flush {
            return match self.rpc(ReqBody::TxnCommit { pid, publish, cont })? {
                RespBody::Ok => Ok(()),
                other => Err(unexpected("txn_commit", &other)),
            };
        }
        // Unacknowledged deferred outs ride ahead of the commit: pipeline
        // the flush and the commit as one batch frame, one round-trip.
        let (acked, commit_body) = self.with_conn(|conn| {
            conn.seq += 1;
            let flush_seq = conn.seq;
            conn.seq += 1;
            let commit_seq = conn.seq;
            conn.seq += 1;
            let batch_seq = conn.seq;
            send_req(
                conn,
                &Req {
                    seq: batch_seq,
                    body: ReqBody::Batch(vec![
                        Req {
                            seq: flush_seq,
                            body: ReqBody::Flush,
                        },
                        Req {
                            seq: commit_seq,
                            body: ReqBody::TxnCommit { pid, publish, cont },
                        },
                    ]),
                },
            )?;
            match recv_seq(conn, batch_seq)? {
                RespBody::Batch(resps) => {
                    let (mut acked, mut commit_body) = (0, None);
                    for resp in resps {
                        if resp.seq == flush_seq {
                            if let RespBody::Num(n) = resp.body {
                                conn.unacked_deferred = 0;
                                acked = n;
                            }
                        } else if resp.seq == commit_seq {
                            commit_body = Some(resp.body);
                        }
                    }
                    let commit_body = commit_body.ok_or_else(|| {
                        PlindaError::Transport("batch response missing commit entry".into())
                    })?;
                    Ok((acked, commit_body))
                }
                RespBody::Err(msg) => Err(PlindaError::Transport(format!(
                    "broker rejected request: {msg}"
                ))),
                other => Err(unexpected("txn_commit", &other)),
            }
        })?;
        self.probe.emit(Event::Flush {
            acked,
            pipelined: true,
        });
        match commit_body {
            RespBody::Ok => Ok(()),
            other => Err(unexpected("txn_commit", &other)),
        }
    }

    fn txn_abort(&self, pid: u64, restore: Vec<Tuple>) -> Result<(), PlindaError> {
        self.emit_out(&restore, false);
        match self.rpc(ReqBody::TxnAbort { pid, restore })? {
            RespBody::Ok => Ok(()),
            other => Err(unexpected("txn_abort", &other)),
        }
    }

    fn cont_get(&self, pid: u64) -> Result<Option<Tuple>, PlindaError> {
        match self.rpc(ReqBody::ContGet { pid })? {
            RespBody::Tuple(t) => Ok(t),
            other => Err(unexpected("cont_get", &other)),
        }
    }

    fn cont_clear(&self, pid: u64) -> Result<(), PlindaError> {
        match self.rpc(ReqBody::ContClear { pid })? {
            RespBody::Ok => Ok(()),
            other => Err(unexpected("cont_clear", &other)),
        }
    }
}

fn unexpected(op: &str, got: &RespBody) -> PlindaError {
    PlindaError::Transport(format!("unexpected response to {op}: {got:?}"))
}
