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
//! request already costs a socket round-trip. A connection's thread is
//! joined at the next accept after it finishes, so short-lived clients
//! leave no thread stacks behind.
//!
//! ## Requests
//!
//! One handler answers every frame of [`super::proto`]. `Poll` and `Wait`
//! share one retrieval path, and a `Wait` that finds nothing parks one
//! `Waiter` shape — `take` and `max` say what it wants — which a later
//! delivery or `restore` answers with `Tuples`. `TxnCommit` answers with
//! the count of deferred outs applied since the last ack, exactly as
//! `Flush` does.
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
use crate::backend::capacity;
use crate::process::PlindaError;
use crate::space::{write_atomically, TupleSpace};
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
    /// Deferred tuples applied since the last `Flush` or `TxnCommit` ack.
    applied_since_flush: u64,
}

/// A parked `Wait` awaiting a matching tuple.
struct Waiter {
    conn: u64,
    seq: u64,
    tmpl: Template,
    /// Withdraw (`in`) rather than copy (`rd`).
    take: bool,
    /// How many tuples the answer may carry; see [`capacity`].
    max: usize,
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

/// A wire `max` as a retrieval capacity (see [`capacity`]).
fn wire_capacity(take: bool, max: u64) -> usize {
    capacity(take, usize::try_from(max).unwrap_or(usize::MAX))
}

/// Retrieve up to `max` matches of `tmpl` from the space without blocking,
/// recording withdrawals as tentative if `conn` is inside a transaction.
fn grab(
    sync: &mut SyncState,
    space: &TupleSpace,
    conn: u64,
    tmpl: &Template,
    take: bool,
    max: usize,
) -> Vec<Tuple> {
    let got = space.poll(tmpl, take, max);
    if take {
        record_tentative(sync, conn, &got);
    }
    got
}

/// Remember `taken` as tentative withdrawals of `conn`'s open transaction.
fn record_tentative(sync: &mut SyncState, conn: u64, taken: &[Tuple]) {
    if let Some(ct) = sync.conns.get_mut(&conn) {
        if ct.in_txn {
            ct.tentative.extend_from_slice(taken);
        }
    }
}

/// Answer waiter `w` with `ts`.
fn answer(w: &Waiter, ts: Vec<Tuple>) {
    send(
        &w.writer,
        &Resp {
            seq: w.seq,
            body: RespBody::Tuples(ts),
        },
    );
}

/// Route a batch of tuples to waiters or the space. Every matching read
/// waiter gets a copy of each tuple (they read it in the instant it became
/// visible), then the first matching take waiter consumes it — and keeps
/// absorbing matches from the same batch up to its `max` before it is
/// answered. Whatever no waiter consumed lands in the space via one
/// `out_all`, so each signature partition is locked once per batch, not
/// once per tuple.
fn deliver(sync: &mut SyncState, space: &TupleSpace, ts: Vec<Tuple>) {
    if ts.is_empty() {
        return;
    }
    // Take waiters matched by this batch, pulled off the waiter list so
    // they can fill before being answered.
    let mut filling: Vec<(Waiter, Vec<Tuple>)> = Vec::new();
    let mut rest: Vec<Tuple> = Vec::new();
    'tuples: for t in ts {
        let mut i = 0;
        while i < sync.waiters.len() {
            if !sync.waiters[i].take && sync.waiters[i].tmpl.matches(&t) {
                answer(&sync.waiters.remove(i), vec![t.clone()]);
            } else {
                i += 1;
            }
        }
        for (w, got) in filling.iter_mut() {
            if got.len() < w.max && w.tmpl.matches(&t) {
                got.push(t);
                continue 'tuples;
            }
        }
        if let Some(i) = sync
            .waiters
            .iter()
            .position(|w| w.take && w.tmpl.matches(&t))
        {
            filling.push((sync.waiters.remove(i), vec![t]));
            continue;
        }
        rest.push(t);
    }
    for (w, mut got) in filling {
        if got.len() < w.max {
            // Top the waiter up from the space: tuples that were already
            // resident still count toward its max.
            got.extend(space.poll(&w.tmpl, true, w.max - got.len()));
        }
        record_tentative(sync, w.conn, &got);
        answer(&w, got);
    }
    space.out_all(rest);
}

/// Apply (make visible) every parked deferred out of `conn`, in program
/// order. Called at the connection's flush barriers: every
/// response-bearing request.
fn apply_deferred(sync: &mut SyncState, space: &TupleSpace, conn: u64) {
    let parked = match sync.conns.get_mut(&conn) {
        Some(ct) if !ct.deferred.is_empty() => {
            let parked = std::mem::take(&mut ct.deferred);
            ct.applied_since_flush += parked.len() as u64;
            parked
        }
        _ => return,
    };
    deliver(sync, space, parked);
}

/// The deferred tuples of `conn` applied since the previous ack, and
/// reset the count: the answer of `Flush` and `TxnCommit`.
fn ack_deferred(sync: &mut SyncState, conn: u64) -> u64 {
    sync.conns
        .get_mut(&conn)
        .map(|ct| std::mem::take(&mut ct.applied_since_flush))
        .unwrap_or(0)
}

/// After a space-wide `restore`, blocked waits must be re-evaluated against
/// the restored contents.
fn resatisfy(sync: &mut SyncState, space: &TupleSpace) {
    for w in std::mem::take(&mut sync.waiters) {
        let got = grab(sync, space, w.conn, &w.tmpl, w.take, w.max);
        if got.is_empty() {
            sync.waiters.push(w);
        } else {
            answer(&w, got);
        }
    }
}

/// Handle one request. `None` means no response is owed right now: a
/// parked blocking wait, or a fire-and-forget deferred out.
fn handle(shared: &Shared, conn: u64, writer: &Arc<Mutex<UnixStream>>, req: Req) -> Option<Resp> {
    let space = &*shared.space;
    let seq = req.seq;
    let mut sync = shared.sync.lock();
    let sync = &mut *sync;
    // Every request but a deferred out is a flush barrier: the
    // connection's parked deferred outs become visible first, so within one
    // connection program order is preserved (an `inp` after an
    // `out_deferred` always observes the deferred tuple).
    if !matches!(req.body, ReqBody::OutDeferred(_)) {
        apply_deferred(sync, space, conn);
    }
    let body = match req.body {
        ReqBody::OutDeferred(ts) => {
            sync.conns.entry(conn).or_default().deferred.extend(ts);
            return None;
        }
        ReqBody::Out(ts) => {
            deliver(sync, space, ts);
            RespBody::Ok
        }
        ReqBody::Flush => RespBody::Num(ack_deferred(sync, conn)),
        ReqBody::Poll { tmpl, take, max } => RespBody::Tuples(grab(
            sync,
            space,
            conn,
            &tmpl,
            take,
            wire_capacity(take, max),
        )),
        ReqBody::Wait { tmpl, take, max } => {
            let max = wire_capacity(take, max);
            let got = grab(sync, space, conn, &tmpl, take, max);
            if got.is_empty() {
                sync.waiters.push(Waiter {
                    conn,
                    seq,
                    tmpl,
                    take,
                    max,
                    writer: Arc::clone(writer),
                });
                return None;
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
            // Else the wait was already satisfied: its Tuples response is
            // on the wire ahead of this Ok, and the client resolves the
            // race.
            RespBody::Ok
        }
        ReqBody::Len => RespBody::Num(space.len() as u64),
        ReqBody::Count(tmpl) => RespBody::Num(space.count(&tmpl) as u64),
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
                    deliver(sync, space, publish);
                    RespBody::Num(ack_deferred(sync, conn))
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
            deliver(sync, space, tentative);
            RespBody::Ok
        }
        ReqBody::ContGet { pid } => match space.backend().cont_get(pid) {
            Ok(c) => RespBody::Tuples(c.into_iter().collect()),
            Err(e) => RespBody::Err(e.to_string()),
        },
        ReqBody::ContClear { pid } => match space.backend().cont_clear(pid) {
            Ok(()) => RespBody::Ok,
            Err(e) => RespBody::Err(e.to_string()),
        },
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
            deliver(&mut sync, &shared.space, ct.tentative);
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

/// Join every finished thread in `threads`, so a short-lived client's
/// connection thread is released when the next client connects, not held
/// until shutdown.
fn reap(threads: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < threads.len() {
        if threads[i].is_finished() {
            let _ = threads.swap_remove(i).join();
        } else {
            i += 1;
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
                            let mut threads = accept_shared.threads.lock();
                            reap(&mut threads);
                            threads.push(h);
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
                        // Take the cut under the sync lock, so it is
                        // transaction-consistent; write it outside.
                        let bytes = {
                            let _sync = ckpt_shared.sync.lock();
                            ckpt_shared.space.checkpoint_bytes()
                        };
                        let _ = write_atomically(&path, &bytes);
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

    /// Client blocking waits currently parked broker-side (`Wait`s with
    /// no match yet). Readiness introspection for tests:
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::field;
    use crate::tup;

    fn start(name: &str) -> Broker {
        let socket =
            std::env::temp_dir().join(format!("fpdm-broker-{name}-{}.sock", std::process::id()));
        Broker::start(BrokerConfig::new(socket)).unwrap()
    }

    /// One request-response exchange on a raw connection.
    fn exchange(stream: &mut UnixStream, body: ReqBody) -> RespBody {
        let req = Req { seq: 1, body };
        stream.write_all(&encode_frame(&req.encode())).unwrap();
        match FrameReader::new().read_from(stream).unwrap() {
            FrameEvent::Frame(payload) => Resp::decode(&payload).unwrap().body,
            other => panic!("no response: {other:?}"),
        }
    }

    #[test]
    fn finished_connection_threads_are_joined() {
        let broker = start("reap");
        for _ in 0..32 {
            // One round trip, so the broker has accepted and registered
            // this connection before it is dropped.
            let mut stream = UnixStream::connect(broker.socket()).unwrap();
            assert_eq!(exchange(&mut stream, ReqBody::Len), RespBody::Num(0));
            drop(stream);
            while !broker.shared.sync.lock().conns.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // The accept thread, the last connection's thread, and at most a
        // few that finished after the accept that followed them.
        let held = broker.shared.threads.lock().len();
        assert!(held <= 4, "{held} thread handles held after 32 connections");
    }

    #[test]
    fn every_decodable_retrieval_is_answered() {
        // A take with `max: 0` takes one tuple; a read returns one tuple,
        // and withdraws none, whatever its `max`.
        let broker = start("retrieve");
        let mut stream = UnixStream::connect(broker.socket()).unwrap();
        let out = ReqBody::Out((0..4).map(|i: i64| tup![i]).collect());
        assert_eq!(exchange(&mut stream, out), RespBody::Ok);
        let tmpl = Template::new(vec![field::int()]);
        for (wait, take, max, left) in [
            (false, true, 0, 3),
            (false, false, 9, 3),
            (true, true, 0, 2),
            (true, false, 9, 2),
        ] {
            let tmpl = tmpl.clone();
            let body = if wait {
                ReqBody::Wait { tmpl, take, max }
            } else {
                ReqBody::Poll { tmpl, take, max }
            };
            match exchange(&mut stream, body) {
                RespBody::Tuples(ts) => assert_eq!(ts.len(), 1, "wait {wait} take {take}"),
                other => panic!("wait {wait} take {take}: {other:?}"),
            }
            assert_eq!(broker.space().len(), left, "wait {wait} take {take}");
        }
    }
}
