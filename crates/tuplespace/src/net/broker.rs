//! The tuple-space broker: the server side of the socket backend.
//!
//! A [`Broker`] hosts an ordinary in-process [`TupleSpace`] (the sharded
//! [`LocalBackend`](crate::space)) behind a Unix-domain-socket listener and
//! serves the [`super::proto`] protocol — this is the PLinda *server* of
//! §7.1.1, with one thread per client connection standing in for the
//! per-workstation daemons. The `fpdm-spaced` binary is a thin `main`
//! around this type; tests embed it in-process.
//!
//! ## Concurrency
//!
//! All protocol handling runs under one `sync` mutex that covers both the
//! space and the waiter list, so "check the space, else park a waiter" is
//! atomic with respect to deliveries — a tuple can never slip past a
//! registering waiter. Waiter wakeups are written to the owning client's
//! stream under the same lock (lock order: `sync` → per-connection writer;
//! writers are leaf locks, so the graph is acyclic). Throughput is bounded
//! by this single lock; that is acceptable for a broker whose every
//! request already costs a socket round-trip.
//!
//! ## Failure semantics
//!
//! * A malformed frame or undecodable request is logged and that
//!   connection is dropped; the broker and every other client continue.
//! * A connection that dies (EOF, SIGKILL of the client) while inside a
//!   transaction has its *tentative withdrawals* — tracked broker-side per
//!   connection — restored to the space, exactly as the runtime aborts a
//!   killed thread's transaction. Buffered client-side `out`s die with the
//!   client, which is correct: they were never visible.
//! * Continuations are keyed by *logical pid*, not connection, so a
//!   re-spawned worker process that reattaches with the same pid finds its
//!   predecessor's continuation (`xrecover` across OS processes).

use super::frame::{encode_frame, FrameEvent, FrameReader};
use super::proto::{Req, ReqBody, Resp, RespBody};
use crate::process::PlindaError;
use crate::space::TupleSpace;
use crate::template::Template;
use crate::value::Tuple;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Broker configuration.
pub struct BrokerConfig {
    /// Path of the Unix-domain socket to listen on (a stale file at this
    /// path is removed).
    pub socket: PathBuf,
    /// Optional checkpoint-protected-space setting: write a consistent
    /// checkpoint of the visible space to the path every interval.
    pub checkpoint: Option<(PathBuf, Duration)>,
}

impl BrokerConfig {
    /// Listen on `socket`, no checkpointing.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        BrokerConfig {
            socket: socket.into(),
            checkpoint: None,
        }
    }

    /// Enable periodic checkpoints of the hosted space.
    pub fn checkpoint_every(mut self, path: impl Into<PathBuf>, interval: Duration) -> Self {
        self.checkpoint = Some((path.into(), interval));
        self
    }
}

/// Per-connection broker-side state. `tentative` mirrors the client's
/// open transaction and is authoritative: on abort *or connection death*
/// these tuples go back into the space. `deferred` holds parked
/// fire-and-forget outs, applied in program order at the connection's
/// next flush barrier; a dead connection's parked outs were never
/// visible and are discarded — the rollback twin of `tentative`.
#[derive(Default)]
struct ConnTxn {
    in_txn: bool,
    tentative: Vec<Tuple>,
    deferred: Vec<Tuple>,
    /// Deferred tuples applied since the last `Flush` ack.
    applied_since_flush: u64,
}

/// A parked blocking `in`/`rd`/`in_batch` awaiting a matching tuple.
struct Waiter {
    conn: u64,
    seq: u64,
    tmpl: Template,
    withdraw: bool,
    /// `Some(max)` for a bulk take (`InBatch`), answered with `Tuples`;
    /// `None` for a classic wait answered with `Tuple`.
    bulk: Option<usize>,
    writer: Arc<Mutex<UnixStream>>,
}

/// Everything the protocol must see atomically.
struct SyncState {
    waiters: Vec<Waiter>,
    conns: HashMap<u64, ConnTxn>,
}

struct Shared {
    space: Arc<TupleSpace>,
    sync: Mutex<SyncState>,
    stop: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// An embedded (or, via `fpdm-spaced`, standalone) tuple-space server.
pub struct Broker {
    shared: Arc<Shared>,
    socket: PathBuf,
}

fn send(writer: &Arc<Mutex<UnixStream>>, resp: &Resp) {
    let frame = encode_frame(&resp.encode());
    let mut w = writer.lock();
    if let Err(e) = w.write_all(&frame) {
        // The client died; its reader thread performs the cleanup.
        eprintln!("fpdm-spaced: write to client failed: {e}");
    }
}

/// Route `t` to waiters or the space; see [`deliver_all`].
fn deliver(sync: &mut SyncState, space: &TupleSpace, t: Tuple) {
    deliver_all(sync, space, vec![t]);
}

/// Route a batch of tuples to waiters or the space. Every matching `rd`
/// waiter gets a copy of each tuple (they read it in the instant it
/// became visible), then the first matching `in`/`in_batch` waiter
/// consumes it — a bulk waiter keeps absorbing matches from the same
/// batch up to its `max` before it is answered. Whatever no waiter
/// consumed lands in the space via one `out_all`, so each signature
/// partition is locked once per batch, not once per tuple.
fn deliver_all(sync: &mut SyncState, space: &TupleSpace, ts: Vec<Tuple>) {
    if ts.is_empty() {
        return;
    }
    // Withdrawing waiters matched by this batch, pulled off the waiter
    // list so bulk ones can fill before being answered.
    let mut filling: Vec<(Waiter, Vec<Tuple>)> = Vec::new();
    let mut rest: Vec<Tuple> = Vec::new();
    'tuples: for t in ts {
        let mut i = 0;
        while i < sync.waiters.len() {
            if !sync.waiters[i].withdraw && sync.waiters[i].tmpl.matches(&t) {
                let w = sync.waiters.remove(i);
                send(
                    &w.writer,
                    &Resp {
                        seq: w.seq,
                        body: RespBody::Tuple(Some(t.clone())),
                    },
                );
            } else {
                i += 1;
            }
        }
        for (w, got) in filling.iter_mut() {
            if got.len() < w.bulk.unwrap_or(1) && w.tmpl.matches(&t) {
                got.push(t);
                continue 'tuples;
            }
        }
        if let Some(i) = sync
            .waiters
            .iter()
            .position(|w| w.withdraw && w.tmpl.matches(&t))
        {
            let w = sync.waiters.remove(i);
            filling.push((w, vec![t]));
            continue;
        }
        rest.push(t);
    }
    for (w, mut got) in filling {
        if let Some(max) = w.bulk {
            if got.len() < max {
                // Top a bulk waiter up from the space: tuples that were
                // already resident still count toward its max.
                got.extend(space.inp_batch(&w.tmpl, max - got.len()));
            }
        }
        if let Some(ct) = sync.conns.get_mut(&w.conn) {
            if ct.in_txn {
                ct.tentative.extend(got.iter().cloned());
            }
        }
        let body = if w.bulk.is_some() {
            RespBody::Tuples(got)
        } else {
            RespBody::Tuple(Some(got.remove(0)))
        };
        send(&w.writer, &Resp { seq: w.seq, body });
    }
    space.out_all(rest);
}

/// Apply (make visible) every parked deferred out of `conn`, in program
/// order. Called at the connection's flush barriers: any
/// response-bearing request, or an explicit `Flush`.
fn apply_deferred(sync: &mut SyncState, space: &TupleSpace, conn: u64) {
    let parked = match sync.conns.get_mut(&conn) {
        Some(ct) if !ct.deferred.is_empty() => {
            let parked = std::mem::take(&mut ct.deferred);
            ct.applied_since_flush += parked.len() as u64;
            parked
        }
        _ => return,
    };
    deliver_all(sync, space, parked);
}

/// After a space-wide `restore`, blocked waits must be re-evaluated against
/// the restored contents.
fn resatisfy(sync: &mut SyncState, space: &TupleSpace) {
    let mut i = 0;
    while i < sync.waiters.len() {
        if sync.waiters[i].withdraw {
            let max = sync.waiters[i].bulk.unwrap_or(1);
            let got = space.inp_batch(&sync.waiters[i].tmpl, max);
            if got.is_empty() {
                i += 1;
                continue;
            }
            let w = sync.waiters.remove(i);
            if let Some(ct) = sync.conns.get_mut(&w.conn) {
                if ct.in_txn {
                    ct.tentative.extend(got.iter().cloned());
                }
            }
            let body = if w.bulk.is_some() {
                RespBody::Tuples(got)
            } else {
                RespBody::Tuple(got.into_iter().next())
            };
            send(&w.writer, &Resp { seq: w.seq, body });
        } else {
            match space.rdp(&sync.waiters[i].tmpl) {
                Some(t) => {
                    let w = sync.waiters.remove(i);
                    send(
                        &w.writer,
                        &Resp {
                            seq: w.seq,
                            body: RespBody::Tuple(Some(t)),
                        },
                    );
                }
                None => i += 1,
            }
        }
    }
}

/// Handle one batchable request body: every operation that answers
/// immediately without parking a waiter or writing to the stream itself.
/// Returns `None` for bodies that cannot appear inside a [`ReqBody::Batch`]
/// — blocking waits, cancels, deferred outs, and nested batches.
fn handle_simple(
    sync: &mut SyncState,
    space: &TupleSpace,
    conn: u64,
    body: ReqBody,
) -> Option<RespBody> {
    let tentative_if_txn = |sync: &mut SyncState, t: &Tuple| {
        if let Some(ct) = sync.conns.get_mut(&conn) {
            if ct.in_txn {
                ct.tentative.push(t.clone());
            }
        }
    };
    Some(match body {
        ReqBody::Out(t) => {
            deliver(sync, space, t);
            RespBody::Ok
        }
        ReqBody::OutAll(ts) => {
            deliver_all(sync, space, ts);
            RespBody::Ok
        }
        ReqBody::Inp(tmpl) => {
            let got = space.inp(&tmpl);
            if let Some(t) = &got {
                tentative_if_txn(sync, t);
            }
            RespBody::Tuple(got)
        }
        ReqBody::Rdp(tmpl) => RespBody::Tuple(space.rdp(&tmpl)),
        ReqBody::InpBatch { tmpl, max } => {
            let got = space.inp_batch(&tmpl, max as usize);
            for t in &got {
                tentative_if_txn(sync, t);
            }
            RespBody::Tuples(got)
        }
        ReqBody::Flush => {
            apply_deferred(sync, space, conn);
            let n = sync
                .conns
                .get_mut(&conn)
                .map(|ct| std::mem::take(&mut ct.applied_since_flush))
                .unwrap_or(0);
            RespBody::Num(n)
        }
        ReqBody::Len => RespBody::Num(space.len() as u64),
        ReqBody::Count(tmpl) => RespBody::Num(space.count(&tmpl) as u64),
        ReqBody::HasMatch(tmpl) => RespBody::Bool(space.has_match(&tmpl)),
        ReqBody::Snapshot => RespBody::Tuples(space.snapshot()),
        ReqBody::Restore(ts) => match space.backend().restore(ts) {
            Ok(()) => {
                resatisfy(sync, space);
                RespBody::Ok
            }
            Err(e) => RespBody::Err(e.to_string()),
        },
        ReqBody::TxnBegin { pid: _ } => {
            let ct = sync.conns.entry(conn).or_default();
            ct.in_txn = true;
            ct.tentative.clear();
            RespBody::Ok
        }
        ReqBody::TxnCommit { pid, publish, cont } => {
            if let Some(ct) = sync.conns.get_mut(&conn) {
                ct.in_txn = false;
                ct.tentative.clear();
            }
            // Record the continuation first, then publish — all under the
            // sync lock, so the commit is atomic for every other client.
            match space.backend().txn_commit(pid, Vec::new(), cont) {
                Ok(()) => {
                    deliver_all(sync, space, publish);
                    RespBody::Ok
                }
                Err(e) => RespBody::Err(e.to_string()),
            }
        }
        ReqBody::TxnAbort { pid: _, restore: _ } => {
            // The broker's own tentative list is authoritative; the
            // client-side record is ignored (it cannot be trusted from a
            // failing process).
            let tentative = match sync.conns.get_mut(&conn) {
                Some(ct) => {
                    ct.in_txn = false;
                    std::mem::take(&mut ct.tentative)
                }
                None => Vec::new(),
            };
            deliver_all(sync, space, tentative);
            RespBody::Ok
        }
        ReqBody::ContGet { pid } => match space.backend().cont_get(pid) {
            Ok(c) => RespBody::Tuple(c),
            Err(e) => RespBody::Err(e.to_string()),
        },
        ReqBody::ContClear { pid } => match space.backend().cont_clear(pid) {
            Ok(()) => RespBody::Ok,
            Err(e) => RespBody::Err(e.to_string()),
        },
        ReqBody::In(_)
        | ReqBody::Rd(_)
        | ReqBody::InBatch { .. }
        | ReqBody::Cancel { .. }
        | ReqBody::OutDeferred(_)
        | ReqBody::OutAllDeferred(_)
        | ReqBody::Batch(_) => return None,
    })
}

/// Handle one request. `None` means no response is owed right now: a
/// parked blocking wait, or a fire-and-forget deferred out.
fn handle(shared: &Shared, conn: u64, writer: &Arc<Mutex<UnixStream>>, req: Req) -> Option<Resp> {
    let space = &*shared.space;
    let seq = req.seq;
    let mut sync = shared.sync.lock();
    // Every non-deferred request is a flush barrier: the connection's
    // parked deferred outs become visible first, so within one connection
    // program order is preserved (an `inp` after an `out_deferred` always
    // observes the deferred tuple).
    match &req.body {
        ReqBody::OutDeferred(_) | ReqBody::OutAllDeferred(_) => {}
        _ => apply_deferred(&mut sync, space, conn),
    }
    let tentative_if_txn = |sync: &mut SyncState, t: &Tuple| {
        if let Some(ct) = sync.conns.get_mut(&conn) {
            if ct.in_txn {
                ct.tentative.push(t.clone());
            }
        }
    };
    let body = match req.body {
        ReqBody::OutDeferred(t) => {
            sync.conns.entry(conn).or_default().deferred.push(t);
            return None;
        }
        ReqBody::OutAllDeferred(ts) => {
            sync.conns.entry(conn).or_default().deferred.extend(ts);
            return None;
        }
        ReqBody::In(tmpl) => match space.inp(&tmpl) {
            Some(t) => {
                tentative_if_txn(&mut sync, &t);
                RespBody::Tuple(Some(t))
            }
            None => {
                sync.waiters.push(Waiter {
                    conn,
                    seq,
                    tmpl,
                    withdraw: true,
                    bulk: None,
                    writer: Arc::clone(writer),
                });
                return None;
            }
        },
        ReqBody::Rd(tmpl) => match space.rdp(&tmpl) {
            Some(t) => RespBody::Tuple(Some(t)),
            None => {
                sync.waiters.push(Waiter {
                    conn,
                    seq,
                    tmpl,
                    withdraw: false,
                    bulk: None,
                    writer: Arc::clone(writer),
                });
                return None;
            }
        },
        ReqBody::InBatch { tmpl, max } => {
            let max = (max as usize).max(1);
            let got = space.inp_batch(&tmpl, max);
            if got.is_empty() {
                sync.waiters.push(Waiter {
                    conn,
                    seq,
                    tmpl,
                    withdraw: true,
                    bulk: Some(max),
                    writer: Arc::clone(writer),
                });
                return None;
            }
            for t in &got {
                tentative_if_txn(&mut sync, t);
            }
            RespBody::Tuples(got)
        }
        ReqBody::Cancel { wait_seq } => {
            if let Some(i) = sync
                .waiters
                .iter()
                .position(|w| w.conn == conn && w.seq == wait_seq)
            {
                sync.waiters.remove(i);
                send(
                    writer,
                    &Resp {
                        seq: wait_seq,
                        body: RespBody::Cancelled,
                    },
                );
            }
            // Else the wait was already satisfied: its Tuple (or Tuples,
            // for a bulk wait) response is on the wire ahead of this Ok,
            // and the client resolves the race.
            RespBody::Ok
        }
        ReqBody::Batch(reqs) => {
            // One vectored response for the whole pipeline. Each entry is
            // handled in order under the same hold of the sync lock, so a
            // batch is atomic with respect to other clients.
            let mut resps = Vec::with_capacity(reqs.len());
            for r in reqs {
                let b = handle_simple(&mut sync, space, conn, r.body).unwrap_or_else(|| {
                    RespBody::Err("operation not allowed inside a batch".into())
                });
                resps.push(Resp {
                    seq: r.seq,
                    body: b,
                });
            }
            RespBody::Batch(resps)
        }
        other => handle_simple(&mut sync, space, conn, other)
            .unwrap_or_else(|| RespBody::Err("unhandled request".into())),
    };
    Some(Resp { seq, body })
}

/// Remove every trace of a dead connection: restore its tentative
/// withdrawals (SIGKILL-safe transaction abort) and *discard* its parked
/// deferred outs — they were never visible, so dropping them is the
/// rollback that keeps deferred `out` exactly-once under client death.
fn cleanup(shared: &Shared, conn: u64, why: &str) {
    let mut sync = shared.sync.lock();
    sync.waiters.retain(|w| w.conn != conn);
    if let Some(ct) = sync.conns.remove(&conn) {
        if !ct.deferred.is_empty() {
            eprintln!(
                "fpdm-spaced: connection {conn} died ({why}); discarding {} never-visible \
                 deferred out(s)",
                ct.deferred.len()
            );
        }
        if !ct.tentative.is_empty() {
            eprintln!(
                "fpdm-spaced: connection {conn} died mid-transaction ({why}); restoring {} \
                 tentative withdrawal(s)",
                ct.tentative.len()
            );
            deliver_all(&mut sync, &shared.space, ct.tentative);
        }
    }
}

fn serve_conn(shared: Arc<Shared>, conn: u64, stream: UnixStream) {
    // Short read timeout so the stop flag is observed promptly.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let writer = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fpdm-spaced: cannot clone stream for connection {conn}: {e}");
            return;
        }
    }));
    shared.sync.lock().conns.entry(conn).or_default();
    let mut stream = stream;
    let mut reader = FrameReader::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            cleanup(&shared, conn, "broker shutdown");
            return;
        }
        match reader.read_from(&mut stream) {
            Ok(FrameEvent::Frame(payload)) => match Req::decode(&payload) {
                Ok(req) => {
                    if let Some(resp) = handle(&shared, conn, &writer, req) {
                        send(&writer, &resp);
                    }
                }
                Err(e) => {
                    // Satellite contract: a malformed request is logged and
                    // the connection dropped; the broker survives.
                    eprintln!("fpdm-spaced: dropping connection {conn}: undecodable request: {e}");
                    cleanup(&shared, conn, "malformed request");
                    return;
                }
            },
            Ok(FrameEvent::TimedOut) => continue,
            Ok(FrameEvent::Eof) => {
                cleanup(&shared, conn, "peer closed");
                return;
            }
            Err(e) => {
                eprintln!("fpdm-spaced: dropping connection {conn}: {e}");
                cleanup(&shared, conn, "read failure");
                return;
            }
        }
    }
}

impl Broker {
    /// Bind the socket and start serving. The hosted space starts empty.
    pub fn start(cfg: BrokerConfig) -> std::io::Result<Broker> {
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            space: Arc::new(TupleSpace::new()),
            sync: Mutex::new(SyncState {
                waiters: Vec::new(),
                conns: HashMap::new(),
            }),
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("fpdm-spaced-accept".into())
            .spawn(move || {
                let next_conn = AtomicU64::new(1);
                while !accept_shared.stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let conn = next_conn.fetch_add(1, Ordering::SeqCst);
                            let conn_shared = Arc::clone(&accept_shared);
                            let h = std::thread::Builder::new()
                                .name(format!("fpdm-spaced-conn-{conn}"))
                                .spawn(move || serve_conn(conn_shared, conn, stream))
                                .expect("failed to spawn connection handler");
                            accept_shared.threads.lock().push(h);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) => {
                            eprintln!("fpdm-spaced: accept failed: {e}");
                            std::thread::sleep(Duration::from_millis(50));
                        }
                    }
                }
            })?;
        shared.threads.lock().push(accept);
        if let Some((path, interval)) = cfg.checkpoint.clone() {
            let ckpt_shared = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name("fpdm-spaced-ckpt".into())
                .spawn(move || {
                    while !ckpt_shared.stop.load(Ordering::SeqCst) {
                        {
                            // Hold the sync lock so the checkpoint is a
                            // transaction-consistent cut.
                            let _sync = ckpt_shared.sync.lock();
                            let _ = ckpt_shared.space.checkpoint_file(&path);
                        }
                        let mut waited = Duration::ZERO;
                        while waited < interval && !ckpt_shared.stop.load(Ordering::SeqCst) {
                            let step = Duration::from_millis(10).min(interval - waited);
                            std::thread::sleep(step);
                            waited += step;
                        }
                    }
                })?;
            shared.threads.lock().push(h);
        }
        Ok(Broker {
            shared,
            socket: cfg.socket,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The hosted space (diagnostics: broker-side metrics, test
    /// inspection).
    pub fn space(&self) -> Arc<TupleSpace> {
        Arc::clone(&self.shared.space)
    }

    /// Client blocking waits currently parked broker-side (`in`/`rd`/
    /// `in_batch` with no match yet). Readiness introspection for tests:
    /// poll this instead of sleeping a guessed interval before producing
    /// the tuple a consumer is expected to be waiting for.
    pub fn waiting(&self) -> usize {
        self.shared.sync.lock().waiters.len()
    }

    /// Stop serving: close the listener, join every thread, remove the
    /// socket file. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        loop {
            let h = { self.shared.threads.lock().pop() };
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Errors the broker surfaces to `fpdm-spaced`'s `main`.
pub fn run_forever(cfg: BrokerConfig) -> Result<(), PlindaError> {
    let broker =
        Broker::start(cfg).map_err(|e| PlindaError::Transport(format!("bind failed: {e}")))?;
    eprintln!(
        "fpdm-spaced: serving tuple space on {}",
        broker.socket().display()
    );
    // Park this thread; the broker's own threads do the work. SIGTERM /
    // SIGKILL is the expected way to stop a standalone broker.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
