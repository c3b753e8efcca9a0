//! The shared tuple space: a backend-agnostic facade plus the in-process
//! sharded implementation.
//!
//! [`TupleSpace`] is the handle every process, channel, farm, and checker
//! holds. It no longer *is* the storage: it delegates to a
//! [`SpaceBackend`] — either the in-process `LocalBackend` defined here
//! (created by [`TupleSpace::new`]) or the Unix-socket client of
//! [`crate::net`] (created by [`TupleSpace::connect_unix`]) — while owning
//! the instrumentation probe that the transaction layer, runtime, and
//! channels share with the backend.
//!
//! ## The local backend
//!
//! Storage is partitioned by type signature: a template's typed formals pin
//! down the exact signature of every tuple it can match, so `in`/`rd` only
//! touch one partition. This mirrors the compile-time tuple partitioning of
//! Linda implementations described in §2.4.5 of the dissertation, performed
//! here at runtime — and each partition carries its *own* lock and condition
//! variable, so an `out` wakes only waiters whose template could possibly
//! match it. Waiters park unboundedly; the only cross-partition wakeup is
//! `kick`, which the runtime uses to make killed processes re-check their
//! cancellation flags.
//!
//! Lock order: the partition registry is always acquired before any
//! partition lock, and multi-partition operations (`out_all`, `snapshot`,
//! `restore`) acquire partition locks in sorted-signature order, so the
//! lock graph is acyclic.

use crate::backend::{capacity, SpaceBackend};
use crate::check::explore::ScheduledBackend;
use crate::check::trace::{OpKind, Recorder};
use crate::codec;
use crate::metrics::MetricsRegistry;
use crate::probe::{Event, Probe};
use crate::process::{ContinuationStore, PlindaError};
use crate::template::Template;
use crate::value::{Sig, Tuple};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One signature's tuples plus the condvar its waiters park on.
#[derive(Default)]
struct Partition {
    tuples: Mutex<Vec<Tuple>>,
    cond: Condvar,
}

/// The in-process implementation of [`SpaceBackend`]: signature-sharded
/// storage with per-partition locks and condvars, plus the continuation
/// store of the transaction layer. Created by [`TupleSpace::new`].
pub(crate) struct LocalBackend {
    registry: Mutex<HashMap<Sig, Arc<Partition>>>,
    /// Total visible tuples (kept in sync under partition locks).
    len: AtomicUsize,
    /// Threads currently parked in a blocking [`SpaceBackend::wait`].
    waiting: AtomicUsize,
    /// Continuations of committed transactions, keyed by logical pid.
    conts: ContinuationStore,
    /// Shared with the facade. Visible-space events are emitted under
    /// partition locks so trace order agrees with visibility order.
    probe: Arc<Probe>,
}

impl LocalBackend {
    fn new(probe: Arc<Probe>) -> Self {
        LocalBackend {
            registry: Mutex::new(HashMap::new()),
            len: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            conts: ContinuationStore::new(),
            probe,
        }
    }

    /// Get-or-create the partition for `sig`. Partitions are never removed
    /// once created, so producer and consumer always converge on the same
    /// `Arc` even when the signature first appears as a *template*.
    fn partition(&self, sig: Sig) -> Arc<Partition> {
        Arc::clone(self.registry.lock().entry(sig).or_default())
    }

    /// Existing partition for `sig`, if any tuple or waiter ever used it.
    fn existing(&self, sig: &Sig) -> Option<Arc<Partition>> {
        self.registry.lock().get(sig).cloned()
    }

    /// Would `tmpl` match some visible tuple right now? The interleaving
    /// explorer's enabledness probe: it records no trace event or metric.
    pub(crate) fn has_match(&self, tmpl: &Template) -> bool {
        self.existing(&tmpl.sig())
            .is_some_and(|part| part.tuples.lock().iter().any(|t| tmpl.matches(t)))
    }

    /// Sorted `(signature, partition)` pairs — the deterministic iteration
    /// order every multi-partition operation uses. `Sig`'s order agrees
    /// with lexicographic tag order, so this matches the order the space
    /// produced when signatures were stored as tag vectors.
    fn sorted_partitions(&self) -> Vec<(Sig, Arc<Partition>)> {
        let reg = self.registry.lock();
        let mut parts: Vec<_> = reg
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        parts
    }

    fn do_out(&self, t: Tuple) {
        let part = self.partition(t.sig());
        let mut tuples = part.tuples.lock();
        self.probe.emit(Event::Out {
            tuples: std::slice::from_ref(&t),
            occupancy: Some(tuples.len() + 1),
            deferred: false,
        });
        tuples.push(t);
        self.len.fetch_add(1, Ordering::SeqCst);
        drop(tuples);
        part.cond.notify_all();
    }

    fn do_out_all(&self, ts: Vec<Tuple>) {
        if ts.is_empty() {
            return;
        }
        let mut by_sig: HashMap<Sig, Vec<Tuple>> = HashMap::new();
        for t in ts {
            by_sig.entry(t.sig()).or_default().push(t);
        }
        let mut sigs: Vec<_> = by_sig.keys().cloned().collect();
        sigs.sort();
        let parts: Vec<Arc<Partition>> =
            sigs.iter().map(|sig| self.partition(sig.clone())).collect();
        let mut batches: Vec<Vec<Tuple>> =
            sigs.iter().map(|sig| by_sig.remove(sig).unwrap()).collect();
        // Acquire all locks in sorted-signature order, then publish.
        let mut guards: Vec<MutexGuard<'_, Vec<Tuple>>> =
            parts.iter().map(|p| p.tuples.lock()).collect();
        for (guard, batch) in guards.iter_mut().zip(batches.iter_mut()) {
            self.probe.emit(Event::Out {
                tuples: batch,
                occupancy: Some(guard.len() + batch.len()),
                deferred: false,
            });
            self.len.fetch_add(batch.len(), Ordering::SeqCst);
            guard.append(batch);
        }
        drop(guards);
        for part in &parts {
            part.cond.notify_all();
        }
    }

    /// Withdraw up to `max` tuples matching `tmpl` from a locked partition
    /// (a `max` of 0 counts as 1) — or, with `withdraw` false, copy the
    /// first one — keeping `self.len` in step and emitting them as one
    /// `Found`. Bulk takes thus acquire the partition lock once per batch,
    /// not once per tuple.
    /// Order within a partition is not part of the Linda contract;
    /// swap_remove keeps withdrawal O(1).
    fn grab(
        &self,
        tuples: &mut Vec<Tuple>,
        tmpl: &Template,
        withdraw: bool,
        max: usize,
    ) -> Vec<Tuple> {
        let max = capacity(withdraw, max);
        let mut got = Vec::new();
        if withdraw {
            while got.len() < max {
                match tuples.iter().position(|t| tmpl.matches(t)) {
                    Some(idx) => got.push(tuples.swap_remove(idx)),
                    None => break,
                }
            }
            self.len.fetch_sub(got.len(), Ordering::SeqCst);
        } else if let Some(t) = tuples.iter().find(|t| tmpl.matches(t)) {
            got.push(t.clone());
        }
        if !got.is_empty() {
            self.probe.emit(Event::Found {
                withdrawn: withdraw,
                tuples: &got,
                occupancy: Some(tuples.len()),
                batch: false,
            });
        }
        got
    }
}

impl SpaceBackend for LocalBackend {
    fn kind(&self) -> &'static str {
        "local"
    }

    fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    /// The local backend is its own flush barrier, so `deferred` changes
    /// nothing. One tuple takes the single-partition path, without
    /// grouping by signature.
    fn out(&self, mut ts: Vec<Tuple>, _deferred: bool) -> Result<(), PlindaError> {
        if ts.len() == 1 {
            self.do_out(ts.pop().expect("one tuple"));
        } else {
            self.do_out_all(ts);
        }
        Ok(())
    }

    /// Emits a `Miss` when nothing matches.
    fn poll(&self, tmpl: &Template, take: bool, max: usize) -> Result<Vec<Tuple>, PlindaError> {
        if let Some(part) = self.existing(&tmpl.sig()) {
            let got = self.grab(&mut part.tuples.lock(), tmpl, take, max);
            if !got.is_empty() {
                return Ok(got);
            }
        }
        self.probe.emit(Event::Miss {
            op: if take { OpKind::Inp } else { OpKind::Rdp },
            template: tmpl,
            batch: false,
        });
        Ok(Vec::new())
    }

    fn wait(
        &self,
        tmpl: &Template,
        take: bool,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError> {
        // Waiting on a signature nobody has produced yet creates its
        // (empty) partition, so the eventual `out` finds our condvar.
        let part = self.partition(tmpl.sig());
        let mut tuples = part.tuples.lock();
        let mut parked = false;
        let mut block_start: Option<Instant> = None;
        loop {
            if cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
                self.probe.emit(Event::WaitCancelled);
                if parked {
                    self.waiting.fetch_sub(1, Ordering::SeqCst);
                }
                return Ok(None);
            }
            if tuples.iter().any(|t| tmpl.matches(t)) {
                if parked {
                    self.waiting.fetch_sub(1, Ordering::SeqCst);
                    self.probe.emit(Event::Wake { since: block_start });
                }
                return Ok(Some(self.grab(&mut tuples, tmpl, take, max)));
            }
            if !parked {
                parked = true;
                self.waiting.fetch_add(1, Ordering::SeqCst);
                let op = if take { OpKind::In } else { OpKind::Rd };
                block_start = self
                    .probe
                    .emit(Event::Block { op, template: tmpl })
                    .then(Instant::now);
            }
            // Unbounded wait: an `out` into this partition notifies its
            // condvar under the same lock, and `kick` (cancellation) locks
            // the partition before notifying, so no wakeup can be lost.
            part.cond.wait(&mut tuples);
        }
    }

    fn kick(&self) {
        for (_, part) in self.sorted_partitions() {
            // Lock-then-notify so the wakeup cannot land in the gap where a
            // waiter has checked its flag but not yet parked.
            drop(part.tuples.lock());
            part.cond.notify_all();
        }
    }

    fn len(&self) -> Result<usize, PlindaError> {
        Ok(self.len.load(Ordering::SeqCst))
    }

    fn count(&self, tmpl: &Template) -> Result<usize, PlindaError> {
        Ok(match self.existing(&tmpl.sig()) {
            Some(part) => part
                .tuples
                .lock()
                .iter()
                .filter(|t| tmpl.matches(t))
                .count(),
            None => 0,
        })
    }

    fn snapshot(&self) -> Result<Vec<Tuple>, PlindaError> {
        let parts = self.sorted_partitions();
        let guards: Vec<MutexGuard<'_, Vec<Tuple>>> =
            parts.iter().map(|(_, p)| p.tuples.lock()).collect();
        let mut out = Vec::new();
        for g in &guards {
            out.extend(g.iter().cloned());
        }
        Ok(out)
    }

    fn restore(&self, tuples: Vec<Tuple>) -> Result<(), PlindaError> {
        let parts = self.sorted_partitions();
        let mut guards: Vec<MutexGuard<'_, Vec<Tuple>>> =
            parts.iter().map(|(_, p)| p.tuples.lock()).collect();
        // Restored tuples whose signature has no partition yet cannot be
        // pushed while holding the sorted guards (the registry lock must
        // come first); they are published via `do_out` afterwards, which
        // emits them itself.
        let slot = |t: &Tuple| {
            let sig = t.sig();
            parts.binary_search_by(|(k, _)| k.cmp(&sig)).ok()
        };
        let (placed, leftover): (Vec<Tuple>, Vec<Tuple>) =
            tuples.into_iter().partition(|t| slot(t).is_some());
        self.probe.emit(Event::Restore { tuples: &placed });
        for g in guards.iter_mut() {
            g.clear();
        }
        self.len.store(placed.len(), Ordering::SeqCst);
        for t in placed {
            guards[slot(&t).expect("partitioned above")].push(t);
        }
        drop(guards);
        for (_, part) in &parts {
            part.cond.notify_all();
        }
        for t in leftover {
            self.do_out(t);
        }
        Ok(())
    }

    fn txn_commit(
        &self,
        pid: u64,
        publish: Vec<Tuple>,
        cont: Option<Tuple>,
    ) -> Result<(), PlindaError> {
        self.do_out_all(publish);
        if let Some(c) = cont {
            self.conts.put(pid, c);
        }
        Ok(())
    }

    fn txn_abort(&self, _pid: u64, restore: Vec<Tuple>) -> Result<(), PlindaError> {
        self.do_out_all(restore);
        Ok(())
    }

    fn cont_get(&self, pid: u64) -> Result<Option<Tuple>, PlindaError> {
        Ok(self.conts.get(pid))
    }

    fn cont_clear(&self, pid: u64) -> Result<(), PlindaError> {
        self.conts.clear(pid);
        Ok(())
    }
}

/// The generative shared memory all PLinda processes coordinate through.
///
/// A facade over a [`SpaceBackend`]: [`TupleSpace::new`] backs it with the
/// in-process sharded space, [`TupleSpace::connect_unix`] with a client of
/// an `fpdm-spaced` broker process. The public operation surface is
/// backend-independent; the farm programs, the kill-schedule explorer, and
/// the metrics ledger run unchanged over either.
///
/// Operations on the local backend are linearizable per signature
/// partition (each partition has a single lock); blocking operations park
/// on their partition's condition variable and are woken only by tuples
/// that land in that partition. A [`crate::Process`]'s blocking calls
/// carry its *kill flag* as the wait's cancel flag, so the runtime can
/// abort a process that is parked inside `in` — the PLinda server does
/// exactly this when a workstation owner returns (§7.1.1).
///
/// The infallible methods (`out`, `inp`, `in_blocking`, …) panic on a
/// transport failure (broker death, malformed frame); they cannot fail on
/// the local backend. The transaction layer ([`crate::Process`]) uses
/// fallible internal paths instead, so worker code sees transport
/// failures as [`PlindaError`] values.
pub struct TupleSpace {
    /// The instrumentation seam feeding the optional trace recorder and
    /// metrics ledger; one relaxed load per op when neither is installed.
    /// Shared with the backend, which emits the space-level events.
    probe: Arc<Probe>,
    backend: Arc<dyn SpaceBackend>,
    /// The backend again, when it is the interleaving explorer's
    /// scheduled space: the runtime seats its threads in the schedule and
    /// the transaction layer takes its commit-boundary step there.
    schedule: Option<Arc<ScheduledBackend>>,
}

impl Default for TupleSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TupleSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleSpace")
            .field("backend", &self.backend.kind())
            .finish_non_exhaustive()
    }
}

impl TupleSpace {
    /// Create an empty space backed by in-process sharded storage.
    pub fn new() -> Self {
        let probe = Arc::new(Probe::default());
        let backend = Arc::new(LocalBackend::new(Arc::clone(&probe)));
        TupleSpace {
            probe,
            backend,
            schedule: None,
        }
    }

    /// An in-process space whose every operation waits for the
    /// explorer's baton (see [`crate::check::explore()`]).
    pub(crate) fn scheduled(make: impl FnOnce(LocalBackend) -> ScheduledBackend) -> Self {
        let probe = Arc::new(Probe::default());
        let sched = Arc::new(make(LocalBackend::new(Arc::clone(&probe))));
        TupleSpace {
            probe,
            backend: Arc::clone(&sched) as Arc<dyn SpaceBackend>,
            schedule: Some(sched),
        }
    }

    /// The explorer's schedule, when this is a scheduled space.
    pub(crate) fn schedule(&self) -> Option<&Arc<ScheduledBackend>> {
        self.schedule.as_ref()
    }

    /// Connect to an `fpdm-spaced` broker listening on the Unix-domain
    /// socket at `path`. Every operation on the returned space is a
    /// request over the socket; see [`crate::net`] for the wire protocol
    /// and `DESIGN.md` ("Backends") for the failure semantics.
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let probe = Arc::new(Probe::default());
        let backend = Arc::new(crate::net::SocketBackend::connect(
            path.as_ref(),
            Arc::clone(&probe),
        )?);
        Ok(TupleSpace {
            probe,
            backend,
            schedule: None,
        })
    }

    /// Short name of the backend this space runs over (`"local"`,
    /// `"unix-socket"`).
    pub fn backend_kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// Threads currently parked in a blocking wait against this space's
    /// backend (in-process only; a socket-connected space reports 0 —
    /// its waiters park broker-side, see [`crate::Broker::waiting`]).
    /// Readiness introspection for tests and services, not a Linda op.
    pub fn waiting(&self) -> usize {
        self.backend.waiting()
    }

    fn fail(e: PlindaError) -> ! {
        panic!("tuple space backend failure: {e}")
    }

    /// Install (or, with `None`, remove) a [`MetricsRegistry`]. While
    /// installed, every Linda operation updates global and per-partition
    /// metrics; with neither a registry nor a recorder installed the cost
    /// is a single relaxed atomic load per operation (gated by
    /// `xtask metrics-smoke`).
    pub fn set_metrics(&self, reg: Option<MetricsRegistry>) {
        self.probe.set_metrics(reg);
    }

    /// Clone of the installed metrics registry, if any.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.probe.metrics()
    }

    /// Is a metrics registry currently installed? One relaxed load.
    pub fn metrics_enabled(&self) -> bool {
        self.probe.metrics_enabled()
    }

    /// Install (or, with `None`, remove) a trace [`Recorder`]. Every Linda
    /// operation on this space is appended to the recorder's trace; the
    /// `plinda::check` checkers analyse the result. The recorder shares
    /// the metrics registry's fast path: one relaxed load per operation
    /// while neither is installed.
    pub fn set_recorder(&self, rec: Option<Recorder>) {
        self.probe.set_recorder(rec);
    }

    /// Hand one instrumentation event to the installed recorder and
    /// ledger (crate-internal: `Process`, `Runtime` and the channels emit
    /// into the same stream as the space ops).
    /// Returns whether any sink was installed.
    #[inline]
    pub(crate) fn emit(&self, ev: Event<'_>) -> bool {
        self.probe.emit(ev)
    }

    /// [`SpaceBackend::out`], panicking on a transport failure.
    fn put(&self, ts: Vec<Tuple>, deferred: bool) {
        self.backend
            .out(ts, deferred)
            .unwrap_or_else(|e| Self::fail(e))
    }

    /// [`SpaceBackend::poll`], panicking on a transport failure.
    pub(crate) fn poll(&self, tmpl: &Template, take: bool, max: usize) -> Vec<Tuple> {
        self.backend
            .poll(tmpl, take, max)
            .unwrap_or_else(|e| Self::fail(e))
    }

    /// [`SpaceBackend::wait`], panicking on a transport failure; without
    /// a `cancel` flag it always returns `Some`.
    pub(crate) fn wait(
        &self,
        tmpl: &Template,
        take: bool,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Option<Vec<Tuple>> {
        self.backend
            .wait(tmpl, take, max, cancel)
            .unwrap_or_else(|e| Self::fail(e))
    }

    /// An uncancellable [`TupleSpace::wait`].
    fn wait_for(&self, tmpl: &Template, take: bool, max: usize) -> Vec<Tuple> {
        self.wait(tmpl, take, max, None)
            .expect("a wait without a cancel flag cannot be cancelled")
    }

    /// `out`: make `t` visible to every process. Never blocks. On the
    /// local backend, wakes only waiters parked on `t`'s signature
    /// partition.
    pub fn out(&self, t: Tuple) {
        self.put(vec![t], false)
    }

    /// Bulk `out`: all of `ts` become visible atomically (used by
    /// transaction commit so a committed transaction's tuples appear
    /// atomically, even when they span signatures).
    pub fn out_all(&self, ts: Vec<Tuple>) {
        self.put(ts, false)
    }

    /// Deferred `out`: on the socket backend the tuple is fire-and-forget
    /// — visibility may lag until this connection's next response-bearing
    /// operation or an explicit [`TupleSpace::flush`]; program order
    /// within the connection is preserved. On the local backend this is
    /// exactly [`TupleSpace::out`]. See `DESIGN.md` ("Backends").
    pub fn out_deferred(&self, t: Tuple) {
        self.put(vec![t], true)
    }

    /// Bulk deferred `out`; see [`TupleSpace::out_deferred`].
    pub fn out_all_deferred(&self, ts: Vec<Tuple>) {
        self.put(ts, true)
    }

    /// Force application of this connection's deferred outs, returning how
    /// many tuples were acknowledged as applied since the last flush.
    pub fn flush(&self) -> u64 {
        self.backend.flush().unwrap_or_else(|e| Self::fail(e))
    }

    /// `inp`: withdraw a matching tuple if one exists, without blocking.
    pub fn inp(&self, tmpl: &Template) -> Option<Tuple> {
        self.poll(tmpl, true, 1).pop()
    }

    /// Bulk `inp`: withdraw up to `max` matching tuples without blocking —
    /// one partition-lock acquisition locally, one round trip remotely.
    /// A `max` of 0 returns nothing and touches nothing.
    pub fn inp_batch(&self, tmpl: &Template, max: usize) -> Vec<Tuple> {
        if max == 0 {
            return Vec::new();
        }
        self.poll(tmpl, true, max)
    }

    /// Bulk `in`: block until at least one match is withdrawn, then drain
    /// up to `max - 1` more. Returns between 1 and `max` tuples.
    pub fn in_batch(&self, tmpl: &Template, max: usize) -> Vec<Tuple> {
        self.wait_for(tmpl, true, max)
    }

    /// `rdp`: copy a matching tuple if one exists, without blocking.
    pub fn rdp(&self, tmpl: &Template) -> Option<Tuple> {
        self.poll(tmpl, false, 1).pop()
    }

    /// `in`: withdraw a matching tuple, blocking until one is available.
    pub fn in_blocking(&self, tmpl: Template) -> Tuple {
        self.wait_for(&tmpl, true, 1).swap_remove(0)
    }

    /// `rd`: copy a matching tuple, blocking until one is available.
    pub fn rd_blocking(&self, tmpl: Template) -> Tuple {
        self.wait_for(&tmpl, false, 1).swap_remove(0)
    }

    /// Number of visible tuples.
    pub fn len(&self) -> usize {
        self.backend.len().unwrap_or_else(|e| Self::fail(e))
    }

    /// Is the space empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count visible tuples matching `tmpl` (diagnostics / tests).
    pub fn count(&self, tmpl: &Template) -> usize {
        self.backend.count(tmpl).unwrap_or_else(|e| Self::fail(e))
    }

    /// Snapshot of every visible tuple, merged across partitions in sorted
    /// signature order — a consistent, deterministic cut (checkpointing).
    pub fn snapshot(&self) -> Vec<Tuple> {
        self.backend.snapshot().unwrap_or_else(|e| Self::fail(e))
    }

    /// Serialize the visible space — PLinda's checkpoint (§2.4.6).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        codec::encode_tuples(&self.snapshot())
    }

    /// Replace the space contents from a checkpoint — rollback recovery.
    pub fn restore_bytes(&self, bytes: &[u8]) -> Result<(), codec::CodecError> {
        let tuples = codec::decode_tuples(bytes)?;
        self.backend
            .restore(tuples)
            .unwrap_or_else(|e| Self::fail(e));
        Ok(())
    }

    /// Checkpoint to a file, atomically: the bytes go to a sibling temp
    /// file, which is synced and renamed over `path`, so a reader or a
    /// restart after a crash mid-write never sees a torn checkpoint.
    pub fn checkpoint_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_atomically(path, &self.checkpoint_bytes())
    }

    /// Restore from a file written by [`TupleSpace::checkpoint_file`].
    pub fn restore_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        let bytes = std::fs::read(path)?;
        self.restore_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The backend itself, for the crate's fallible paths: the
    /// transaction layer, runtime and broker use the transaction and
    /// continuation hooks, cancellable waits and `kick`, and surface
    /// transport failures as [`PlindaError`] values instead of the panics
    /// of the methods above.
    pub(crate) fn backend(&self) -> &dyn SpaceBackend {
        &*self.backend
    }
}

/// Write `bytes` to `path` atomically: they go to a sibling temp file,
/// which is synced and then renamed over `path`, and the directory is
/// synced so the rename survives a crash. A concurrent reader, or a
/// restart after a crash mid-write, sees the previous file or this one,
/// never a torn file.
pub(crate) fn write_atomically(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::fs::File;
    use std::io::Write;
    static NEXT_TMP: AtomicUsize = AtomicUsize::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    let written = File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.and_then(|()| File::open(dir)?.sync_all())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::field;
    use crate::tup;
    use std::sync::Arc;
    use std::time::Duration;

    fn task_tmpl() -> Template {
        Template::new(vec![field::val("task"), field::int()])
    }

    #[test]
    fn out_then_inp() {
        let ts = TupleSpace::new();
        ts.out(tup!["task", 1]);
        ts.out(tup!["task", 2]);
        assert_eq!(ts.len(), 2);
        let got = ts.inp(&task_tmpl()).unwrap();
        assert_eq!(got.str(0), "task");
        assert_eq!(ts.len(), 1);
        assert!(ts.inp(&task_tmpl()).is_some());
        assert!(ts.inp(&task_tmpl()).is_none());
    }

    #[test]
    fn rdp_does_not_withdraw() {
        let ts = TupleSpace::new();
        ts.out(tup!["task", 1]);
        assert!(ts.rdp(&task_tmpl()).is_some());
        assert!(ts.rdp(&task_tmpl()).is_some());
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn local_backend_kind() {
        assert_eq!(TupleSpace::new().backend_kind(), "local");
    }

    #[test]
    fn actual_fields_select_specific_tuples() {
        let ts = TupleSpace::new();
        ts.out(tup!["result", 0, 10]);
        ts.out(tup!["result", 1, 20]);
        let tmpl = Template::new(vec![field::val("result"), field::val(1), field::int()]);
        let got = ts.inp(&tmpl).unwrap();
        assert_eq!(got.int(2), 20);
    }

    #[test]
    fn blocking_in_wakes_on_out() {
        let ts = Arc::new(TupleSpace::new());
        let ts2 = Arc::clone(&ts);
        let h = std::thread::spawn(move || ts2.in_blocking(task_tmpl()));
        std::thread::sleep(Duration::from_millis(30));
        ts.out(tup!["task", 9]);
        let got = h.join().unwrap();
        assert_eq!(got.int(1), 9);
    }

    #[test]
    fn cancellable_in_observes_kill() {
        let ts = Arc::new(TupleSpace::new());
        let cancel = Arc::new(AtomicBool::new(false));
        let (ts2, c2) = (Arc::clone(&ts), Arc::clone(&cancel));
        let h = std::thread::spawn(move || ts2.wait(&task_tmpl(), true, 1, Some(&c2)));
        std::thread::sleep(Duration::from_millis(30));
        cancel.store(true, Ordering::SeqCst);
        ts.backend().kick();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn out_to_other_signature_does_not_release_waiter() {
        let ts = Arc::new(TupleSpace::new());
        let ts2 = Arc::clone(&ts);
        let h = std::thread::spawn(move || ts2.in_blocking(task_tmpl()));
        // Traffic in unrelated partitions must not satisfy the waiter.
        for i in 0..50 {
            ts.out(tup!["other", i, 1.5]);
        }
        std::thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished());
        ts.out(tup!["task", 7]);
        assert_eq!(h.join().unwrap().int(1), 7);
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let ts = TupleSpace::new();
        ts.out(tup!["task", 1]);
        ts.out(tup!["done", 2, 3.5]);
        let bytes = ts.checkpoint_bytes();

        let ts2 = TupleSpace::new();
        ts2.out(tup!["junk"]);
        ts2.restore_bytes(&bytes).unwrap();
        assert_eq!(ts2.len(), 2);
        assert!(ts2.inp(&task_tmpl()).is_some());
        assert!(ts2.inp(&Template::new(vec![field::val("junk")])).is_none());
    }

    #[test]
    fn restore_into_fresh_space_creates_partitions() {
        let ts = TupleSpace::new();
        ts.out(tup!["task", 1]);
        ts.out(tup!["mids", 0.5, 1.5]);
        let bytes = ts.checkpoint_bytes();

        let fresh = TupleSpace::new();
        fresh.restore_bytes(&bytes).unwrap();
        assert_eq!(fresh.len(), 2);
        assert!(fresh.inp(&task_tmpl()).is_some());
        let mids = Template::new(vec![field::val("mids"), field::real(), field::real()]);
        assert!(fresh.inp(&mids).is_some());
        assert!(fresh.is_empty());
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let build = |order_flip: bool| {
            let ts = TupleSpace::new();
            if order_flip {
                ts.out(tup!["b", 2]);
                ts.out(tup!["a", 1.0]);
            } else {
                ts.out(tup!["a", 1.0]);
                ts.out(tup!["b", 2]);
            }
            ts.checkpoint_bytes()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn out_all_is_atomic_batch() {
        let ts = TupleSpace::new();
        ts.out_all(vec![tup!["task", 1], tup!["task", 2], tup!["task", 3]]);
        assert_eq!(ts.count(&task_tmpl()), 3);
    }

    #[test]
    fn out_all_spanning_signatures_wakes_each_partition() {
        let ts = Arc::new(TupleSpace::new());
        let t1 = Arc::clone(&ts);
        let h1 = std::thread::spawn(move || t1.in_blocking(task_tmpl()));
        let t2 = Arc::clone(&ts);
        let h2 = std::thread::spawn(move || {
            t2.in_blocking(Template::new(vec![field::val("done"), field::real()]))
        });
        std::thread::sleep(Duration::from_millis(30));
        ts.out_all(vec![tup!["task", 4], tup!["done", 2.5]]);
        assert_eq!(h1.join().unwrap().int(1), 4);
        assert_eq!(h2.join().unwrap().real(1), 2.5);
        assert!(ts.is_empty());
    }

    #[test]
    fn inp_batch_drains_up_to_max() {
        let ts = TupleSpace::new();
        for i in 0..5 {
            ts.out(tup!["task", i as i64]);
        }
        let got = ts.inp_batch(&task_tmpl(), 3);
        assert_eq!(got.len(), 3);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.inp_batch(&task_tmpl(), 10).len(), 2);
        assert!(ts.inp_batch(&task_tmpl(), 10).is_empty());
        assert!(ts.is_empty());
    }

    #[test]
    fn in_batch_blocks_then_drains_what_arrived() {
        let ts = Arc::new(TupleSpace::new());
        let ts2 = Arc::clone(&ts);
        let h = std::thread::spawn(move || ts2.in_batch(&task_tmpl(), 4));
        std::thread::sleep(Duration::from_millis(30));
        // Both tuples land under one partition lock, so the woken waiter
        // drains both in its single pass.
        ts.out_all(vec![tup!["task", 1], tup!["task", 2]]);
        let got = h.join().unwrap();
        assert_eq!(got.len(), 2);
        assert!(ts.is_empty());
    }

    #[test]
    fn deferred_out_is_immediate_locally() {
        let ts = TupleSpace::new();
        ts.out_deferred(tup!["task", 1]);
        ts.out_all_deferred(vec![tup!["task", 2]]);
        assert_eq!(ts.flush(), 0);
        assert_eq!(ts.count(&task_tmpl()), 2);
    }

    #[test]
    fn metrics_count_ops_and_occupancy() {
        let ts = TupleSpace::new();
        let reg = crate::metrics::MetricsRegistry::new();
        ts.set_metrics(Some(reg.clone()));
        assert!(ts.metrics_enabled());
        ts.out(tup!["task", 1]);
        ts.out(tup!["task", 2]);
        assert!(ts.inp(&task_tmpl()).is_some());
        assert!(ts
            .inp(&Template::new(vec![field::val("nope"), field::int()]))
            .is_none());
        assert!(ts.rdp(&task_tmpl()).is_some());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("space.ops.out"), 2);
        assert_eq!(snap.counter("space.ops.take"), 1);
        assert_eq!(snap.counter("space.ops.read"), 1);
        assert_eq!(snap.counter("space.ops.miss"), 1);
        // A single (str, int) partition saw out+out+take+read = 4 ops;
        // occupancy is now 1 with a high-water mark of 2.
        let (_, occ) = snap
            .gauges
            .iter()
            .find(|(k, _)| k.starts_with("space.part.") && k.ends_with(".occupancy"))
            .expect("per-partition occupancy gauge");
        assert_eq!(occ.value, 1);
        assert_eq!(occ.hi, 2);
        let ops = snap.sum_counters(|k| k.starts_with("space.part.") && k.ends_with(".ops"));
        assert_eq!(ops, 4);
    }

    #[test]
    fn metrics_record_block_and_wake() {
        let ts = Arc::new(TupleSpace::new());
        let reg = crate::metrics::MetricsRegistry::new();
        ts.set_metrics(Some(reg.clone()));
        let ts2 = Arc::clone(&ts);
        let h = std::thread::spawn(move || ts2.in_blocking(task_tmpl()));
        std::thread::sleep(Duration::from_millis(30));
        ts.out(tup!["task", 5]);
        h.join().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("space.ops.block"), 1);
        assert_eq!(snap.counter("space.ops.wake"), 1);
        let hist = snap.histogram("space.block_ns").expect("block histogram");
        assert_eq!(hist.count, 1);
        assert!(hist.sum >= 1_000_000, "blocked ≥ 1ms, got {}ns", hist.sum);
    }

    #[test]
    fn swapping_registries_rebuilds_partition_handles() {
        // The same body over both backends: the per-signature handles the
        // ledger caches follow a registry swap, and a recorder installed
        // and removed beside the registry leaves the ledger counting.
        fn body(ts: &TupleSpace) {
            let sig = tup!["task", 1].sig();
            let ops = format!("space.part.{sig}.ops");
            let occupancy = format!("space.part.{sig}.occupancy");
            // Occupancy is broker state: only the local backend reports it.
            let local = ts.backend_kind() == "local";
            let part = |reg: &MetricsRegistry| {
                let snap = reg.snapshot();
                let gauge = snap.gauge(&occupancy).map(|g| g.value);
                (snap.counter(&ops), gauge)
            };
            let first = MetricsRegistry::new();
            ts.set_metrics(Some(first.clone()));
            ts.out(tup!["task", 1]);
            let second = MetricsRegistry::new();
            ts.set_metrics(Some(second.clone()));
            ts.out(tup!["task", 2]);
            assert_eq!(first.snapshot().counter("space.ops.out"), 1);
            assert_eq!(second.snapshot().counter("space.ops.out"), 1);
            assert_eq!(part(&first), (1, local.then_some(1)));
            assert_eq!(part(&second), (1, local.then_some(2)));

            let rec = Recorder::new();
            ts.set_recorder(Some(rec.clone()));
            assert!(ts.inp(&task_tmpl()).is_some());
            ts.set_recorder(None);
            assert!(ts.inp(&task_tmpl()).is_some());
            assert_eq!(rec.len(), 1, "the recorder stops at its removal");
            let snap = second.snapshot();
            assert_eq!(
                snap.counter("space.ops.take"),
                2,
                "the ledger keeps counting"
            );
            assert_eq!(part(&second), (3, local.then_some(0)));

            ts.set_metrics(None);
            ts.out(tup!["task", 3]);
            assert_eq!(second.snapshot().counter("space.ops.out"), 1);
            assert!(ts.inp(&task_tmpl()).is_some());
        }
        body(&TupleSpace::new());
        let sock = std::env::temp_dir().join(format!("plinda-swap-{}.sock", std::process::id()));
        let broker = crate::Broker::start(crate::BrokerConfig::new(&sock)).unwrap();
        body(&TupleSpace::connect_unix(broker.socket()).unwrap());
    }

    #[test]
    fn many_producers_one_consumer() {
        let ts = Arc::new(TupleSpace::new());
        let n = 8;
        let per = 50;
        let mut handles = Vec::new();
        for p in 0..n {
            let ts = Arc::clone(&ts);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    ts.out(tup!["task", (p * per + i) as i64]);
                }
            }));
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n * per {
            let t = ts.in_blocking(task_tmpl());
            assert!(seen.insert(t.int(1)));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(ts.is_empty());
    }

    #[test]
    fn a_concurrent_reader_never_sees_a_torn_checkpoint() {
        let path = std::env::temp_dir().join(format!("fpdm-ckpt-torn-{}.bin", std::process::id()));
        let space = TupleSpace::new();
        space.out_all((0..20_000i64).map(|i| tup!["row", i, "payload"]).collect());
        space.checkpoint_file(&path).unwrap();
        let done = AtomicBool::new(false);
        let (reads, torn) = std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..30 {
                    space.checkpoint_file(&path).unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            let reader = TupleSpace::new();
            let (mut reads, mut torn) = (0, 0);
            while !done.load(Ordering::SeqCst) && reads < 10_000 {
                reads += 1;
                if reader.restore_file(&path).is_err() {
                    torn += 1;
                }
            }
            (reads, torn)
        });
        let _ = std::fs::remove_file(&path);
        assert_eq!(torn, 0, "{torn} of {reads} reads saw a torn checkpoint");
    }
}
