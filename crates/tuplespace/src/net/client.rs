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
//! waits: a `Wait` whose response is deferred is polled with a short read
//! timeout (~20 ms) so the cancel flag — the runtime's kill signal — is
//! observed promptly; [`SpaceBackend::kick`] is therefore a no-op here.
//! A cancel that races an arriving answer is resolved deterministically:
//! the client consumes both responses, and if a withdrawing wait won the
//! race it returns the tuples to the space with one compensating `Out`
//! before reporting the cancellation.
//!
//! ## Batching
//!
//! Each of the three [`SpaceBackend`] retrieval shapes is one frame (see
//! [`super::proto`]): `out` is `Out` or `OutDeferred`, `poll` is `Poll`
//! and `wait` is `Wait`, so a take of up to `max` tuples costs one round
//! trip whatever `max` is.
//!
//! Deferred outs are encoded into a per-connection write-coalescing
//! buffer and cost no round-trip and no syscall of their own: the
//! buffered frames go to the kernel in the same `write` as the next
//! request. Because every request frame is sent behind the buffered
//! deferred frames, and the broker applies a connection's parked outs
//! before answering anything else, program order is preserved
//! structurally — a blocking wait can never overtake this
//! connection's own deferred outs. After `DEFER_WINDOW` unacked tuples the
//! client forces a `Flush` round-trip, and `txn_commit` acknowledges them
//! in the commit's own round trip.
//!
//! Instrumentation events are emitted *client-side*, the same events the
//! local backend emits, so the `fpdm.metrics.v1` ledger and the `check`
//! analyzers see the same shape either way. A `poll` or `wait` counts as
//! a batched exchange (the ledger's `net.batch.*`) exactly when it is a
//! take with `max > 1`. Partition occupancy is broker state, so these
//! events carry none and the ledger keeps no occupancy gauges for a
//! socket-backed space.

use super::frame::{encode_frame, FrameEvent, FrameReader};
use super::proto::{Req, ReqBody, ReqOp, Resp, RespBody};
use crate::backend::{capacity, SpaceBackend};
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
    /// Deferred tuples sent but not yet acknowledged by a `Flush` or a
    /// `TxnCommit`.
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
        self.with_conn(|conn| exchange(conn, body))
    }

    /// An exchange answered by `Ok`.
    fn rpc_ok(&self, body: ReqBody) -> Result<(), PlindaError> {
        let op = body.op();
        match self.rpc(body)? {
            RespBody::Ok => Ok(()),
            other => Err(unexpected(op, &other)),
        }
    }

    /// An exchange answered by `Num`.
    fn rpc_num(&self, body: ReqBody) -> Result<u64, PlindaError> {
        let op = body.op();
        match self.rpc(body)? {
            RespBody::Num(n) => Ok(n),
            other => Err(unexpected(op, &other)),
        }
    }

    /// An exchange answered by at most `max` tuples.
    fn rpc_tuples(&self, body: ReqBody, max: usize) -> Result<Vec<Tuple>, PlindaError> {
        let op = body.op();
        tuples(op, self.rpc(body)?, 0..=max)
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

/// The tuples of a `Tuples` answer holding a count in `len`; anything
/// else answering `op` is a protocol error.
fn tuples(
    op: ReqOp,
    body: RespBody,
    len: std::ops::RangeInclusive<usize>,
) -> Result<Vec<Tuple>, PlindaError> {
    match body {
        RespBody::Tuples(ts) if len.contains(&ts.len()) => Ok(ts),
        other => Err(unexpected(op, &other)),
    }
}

/// Append `body`'s frame to the write-coalescing buffer, returning its
/// seq. Nothing reaches the kernel until the next [`send`].
fn queue(conn: &mut Conn, body: ReqBody) -> u64 {
    conn.seq += 1;
    let frame = encode_frame(
        &Req {
            seq: conn.seq,
            body,
        }
        .encode(),
    );
    conn.wbuf.extend_from_slice(&frame);
    conn.seq
}

/// Queue `body` behind any coalesced deferred frames and write everything
/// to the kernel in one `write`, returning its seq.
fn send(conn: &mut Conn, body: ReqBody) -> Result<u64, PlindaError> {
    let seq = queue(conn, body);
    let res = conn
        .stream
        .write_all(&conn.wbuf)
        .map_err(|e| PlindaError::Transport(format!("write failed: {e}")));
    conn.wbuf.clear();
    res.map(|()| seq)
}

/// The next response frame, or `None` when the read timed out.
fn next_resp(conn: &mut Conn) -> Result<Option<Resp>, PlindaError> {
    match conn.reader.read_from(&mut conn.stream)? {
        FrameEvent::Frame(payload) => Ok(Some(Resp::decode(&payload)?)),
        FrameEvent::TimedOut => Ok(None),
        FrameEvent::Eof => Err(PlindaError::Transport("broker closed connection".into())),
    }
}

/// A response no outstanding request of this connection owns.
fn stray(resp: &Resp) -> PlindaError {
    PlindaError::Transport(format!(
        "response for unexpected seq {}: {:?}",
        resp.seq, resp.body
    ))
}

/// One strict request-response exchange on `conn`; a broker `Err` is a
/// transport error.
fn exchange(conn: &mut Conn, body: ReqBody) -> Result<RespBody, PlindaError> {
    let seq = send(conn, body)?;
    loop {
        match next_resp(conn)? {
            Some(Resp {
                body: RespBody::Err(msg),
                seq: s,
            }) if s == seq => {
                return Err(PlindaError::Transport(format!(
                    "broker rejected request: {msg}"
                )))
            }
            Some(resp) if resp.seq == seq => return Ok(resp.body),
            Some(resp) => return Err(stray(&resp)),
            None => continue,
        }
    }
}

/// Force a `Flush` round-trip: every parked deferred out of this
/// connection is applied and acknowledged.
fn flush_conn(conn: &mut Conn, probe: &Probe) -> Result<u64, PlindaError> {
    match exchange(conn, ReqBody::Flush)? {
        RespBody::Num(acked) => {
            conn.unacked_deferred = 0;
            probe.emit(Event::Flush { acked });
            Ok(acked)
        }
        other => Err(unexpected(ReqOp::Flush, &other)),
    }
}

/// Revoke wait `wait_seq`, consuming its resolution and the cancel's `Ok`
/// in either order. If a withdrawing wait won the race, its tuples go back
/// to the space with an *awaited* compensating `Out` — deferred
/// compensation could be discarded with a dying connection, losing
/// tuples — and the caller, which is being killed, never sees them. A
/// read that won took nothing, so there is nothing to put back.
fn cancel_wait(conn: &mut Conn, wait_seq: u64, take: bool, max: usize) -> Result<(), PlindaError> {
    let cancel_seq = send(conn, ReqBody::Cancel { wait_seq })?;
    let (mut won, mut resolved, mut acked) = (None, false, false);
    while !(resolved && acked) {
        match next_resp(conn)? {
            Some(Resp {
                seq,
                body: RespBody::Cancelled,
            }) if seq == wait_seq && !resolved => resolved = true,
            Some(Resp { seq, body }) if seq == wait_seq && !resolved => {
                won = Some(tuples(ReqOp::Wait, body, 1..=max)?);
                resolved = true;
            }
            Some(Resp {
                seq,
                body: RespBody::Ok,
            }) if seq == cancel_seq && !acked => acked = true,
            Some(resp) => return Err(stray(&resp)),
            None => continue,
        }
    }
    if let Some(ts) = won.filter(|_| take) {
        exchange(conn, ReqBody::Out(ts))?;
    }
    Ok(())
}

impl SpaceBackend for SocketBackend {
    fn kind(&self) -> &'static str {
        "unix-socket"
    }

    /// A deferred batch is one coalesced `OutDeferred` frame with no
    /// response to await.
    fn out(&self, ts: Vec<Tuple>, deferred: bool) -> Result<(), PlindaError> {
        if ts.is_empty() {
            return Ok(());
        }
        // A deferred batch is emitted at enqueue, like an immediate one:
        // within this connection the tuples are observable by every later
        // operation (the broker applies parked outs before answering
        // anything), and no other process can distinguish "parked" from
        // "in flight".
        self.emit_out(&ts, deferred);
        if !deferred {
            return self.rpc_ok(ReqBody::Out(ts));
        }
        let n = ts.len() as u64;
        self.with_conn(|conn| {
            queue(conn, ReqBody::OutDeferred(ts));
            conn.unacked_deferred += n;
            if conn.unacked_deferred >= DEFER_WINDOW {
                flush_conn(conn, &self.probe)?;
            }
            Ok(())
        })
    }

    /// One `Poll` round trip, emitting `Found`, or a `Miss` when nothing
    /// matched.
    fn poll(&self, tmpl: &Template, take: bool, max: usize) -> Result<Vec<Tuple>, PlindaError> {
        let max = capacity(take, max);
        let got = self.rpc_tuples(
            ReqBody::Poll {
                tmpl: tmpl.clone(),
                take,
                max: max as u64,
            },
            max,
        )?;
        let batch = take && max > 1;
        self.probe.emit(if got.is_empty() {
            Event::Miss {
                op: if take { OpKind::Inp } else { OpKind::Rdp },
                template: tmpl,
                batch,
            }
        } else {
            Event::Found {
                withdrawn: take,
                tuples: &got,
                occupancy: None,
                batch,
            }
        });
        Ok(got)
    }

    /// One `Wait`, polled for its answer.
    fn wait(
        &self,
        tmpl: &Template,
        take: bool,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError> {
        let cancelled = |c: Option<&AtomicBool>| c.is_some_and(|c| c.load(Ordering::SeqCst));
        if cancelled(cancel) {
            self.probe.emit(Event::WaitCancelled);
            return Ok(None);
        }
        let max = capacity(take, max);
        let (mut blocked, mut block_start) = (false, None);
        let got = self.with_conn(|conn| {
            let wait_seq = send(
                conn,
                ReqBody::Wait {
                    tmpl: tmpl.clone(),
                    take,
                    max: max as u64,
                },
            )?;
            loop {
                match next_resp(conn)? {
                    Some(resp) if resp.seq == wait_seq => {
                        return tuples(ReqOp::Wait, resp.body, 1..=max).map(Some)
                    }
                    Some(resp) => return Err(stray(&resp)),
                    None => {
                        if !blocked {
                            blocked = true;
                            let op = if take { OpKind::In } else { OpKind::Rd };
                            block_start = self
                                .probe
                                .emit(Event::Block { op, template: tmpl })
                                .then(Instant::now);
                        }
                        if cancelled(cancel) {
                            cancel_wait(conn, wait_seq, take, max)?;
                            return Ok(None);
                        }
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
                    withdrawn: take,
                    tuples: &ts,
                    occupancy: None,
                    batch: take && max > 1,
                });
                Ok(Some(ts))
            }
            None => {
                self.probe.emit(Event::WaitCancelled);
                Ok(None)
            }
        }
    }

    fn flush(&self) -> Result<u64, PlindaError> {
        self.with_conn(|conn| flush_conn(conn, &self.probe))
    }

    fn kick(&self) {
        // Socket waits poll their cancel flag every POLL interval; there is
        // no condvar to notify.
    }

    fn len(&self) -> Result<usize, PlindaError> {
        Ok(self.rpc_num(ReqBody::Len)? as usize)
    }

    fn count(&self, tmpl: &Template) -> Result<usize, PlindaError> {
        Ok(self.rpc_num(ReqBody::Count(tmpl.clone()))? as usize)
    }

    fn snapshot(&self) -> Result<Vec<Tuple>, PlindaError> {
        self.rpc_tuples(ReqBody::Snapshot, usize::MAX)
    }

    fn restore(&self, tuples: Vec<Tuple>) -> Result<(), PlindaError> {
        // The broker places the tuples; this client observes only the
        // reset.
        self.probe.emit(Event::Restore { tuples: &[] });
        self.rpc_ok(ReqBody::Restore(tuples))
    }

    fn txn_begin(&self, pid: u64) -> Result<(), PlindaError> {
        self.rpc_ok(ReqBody::TxnBegin { pid })
    }

    fn txn_commit(
        &self,
        pid: u64,
        publish: Vec<Tuple>,
        cont: Option<Tuple>,
    ) -> Result<(), PlindaError> {
        self.emit_out(&publish, false);
        // The broker applies this connection's parked deferred outs before
        // it commits, and answers how many it applied since the last ack:
        // the commit is also the flush of the deferred outs ahead of it.
        let (carried, acked) = self.with_conn(|conn| {
            let carried = std::mem::take(&mut conn.unacked_deferred) > 0;
            match exchange(conn, ReqBody::TxnCommit { pid, publish, cont })? {
                RespBody::Num(acked) => Ok((carried, acked)),
                other => Err(unexpected(ReqOp::TxnCommit, &other)),
            }
        })?;
        if carried {
            self.probe.emit(Event::Flush { acked });
        }
        Ok(())
    }

    fn txn_abort(&self, pid: u64, restore: Vec<Tuple>) -> Result<(), PlindaError> {
        self.emit_out(&restore, false);
        self.rpc_ok(ReqBody::TxnAbort { pid, restore })
    }

    fn cont_get(&self, pid: u64) -> Result<Option<Tuple>, PlindaError> {
        Ok(self.rpc_tuples(ReqBody::ContGet { pid }, 1)?.pop())
    }

    fn cont_clear(&self, pid: u64) -> Result<(), PlindaError> {
        self.rpc_ok(ReqBody::ContClear { pid })
    }
}

fn unexpected(op: ReqOp, got: &RespBody) -> PlindaError {
    PlindaError::Transport(format!("unexpected response to {}: {got:?}", op.name()))
}
