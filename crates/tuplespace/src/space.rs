//! The shared tuple space: a backend-agnostic facade plus the in-process
//! sharded implementation.
//!
//! [`TupleSpace`] is the handle every process, channel, farm, and checker
//! holds. It no longer *is* the storage: it delegates to a
//! [`SpaceBackend`] — either the in-process `LocalBackend` defined here
//! (created by [`TupleSpace::new`]) or the Unix-socket client of
//! [`crate::net`] (created by [`TupleSpace::connect_unix`]) — while owning
//! the trace-recorder and metrics slots that the transaction layer,
//! runtime, and farm share with the backend.
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

use crate::backend::SpaceBackend;
use crate::check::trace::{self, OpKind, Recorder, RecorderSlot, TraceEvent};
use crate::codec;
use crate::metrics::{Counter, Gauge, MetricsRegistry, MetricsSlot};
use crate::process::{ContinuationStore, PlindaError};
use crate::template::Template;
use crate::value::{Sig, Tuple};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cached per-partition metric handles, re-created whenever a different
/// registry is installed (distinguished by registry id).
struct PartStats {
    reg_id: u64,
    ops: Counter,
    occupancy: Gauge,
}

/// One signature's tuples plus the condvar its waiters park on.
#[derive(Default)]
struct Partition {
    tuples: Mutex<Vec<Tuple>>,
    cond: Condvar,
    /// Cached metric handles (`space.part.<sig>.*`); lazily (re)built on
    /// first instrumented op against the installed registry.
    stats: Mutex<Option<PartStats>>,
}

/// The in-process implementation of [`SpaceBackend`]: signature-sharded
/// storage with per-partition locks and condvars, plus the continuation
/// store of the transaction layer. Created by [`TupleSpace::new`].
pub(crate) struct LocalBackend {
    registry: Mutex<HashMap<Sig, Arc<Partition>>>,
    /// Total visible tuples (kept in sync under partition locks).
    len: AtomicUsize,
    /// Threads currently parked in [`LocalBackend::wait_on_partition`].
    waiting: AtomicUsize,
    /// Continuations of committed transactions, keyed by logical pid.
    conts: ContinuationStore,
    /// Shared with the facade: recorded under partition locks so trace
    /// order agrees with visibility order.
    rec: Arc<RecorderSlot>,
    /// Shared with the facade.
    met: Arc<MetricsSlot>,
}

impl LocalBackend {
    fn new(rec: Arc<RecorderSlot>, met: Arc<MetricsSlot>) -> Self {
        LocalBackend {
            registry: Mutex::new(HashMap::new()),
            len: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            conts: ContinuationStore::new(),
            rec,
            met,
        }
    }

    /// Bump the per-partition op counter and occupancy gauge plus the
    /// matching global `space.ops.*` counter. Handles are cached on the
    /// partition and rebuilt if a different registry was installed.
    fn note_part(&self, part: &Partition, sig: &Sig, occ: usize, global: &'static str, n: u64) {
        self.met.with(|reg| {
            let mut stats = part.stats.lock();
            let rebuild = match &*stats {
                Some(ps) => ps.reg_id != reg.id(),
                None => true,
            };
            if rebuild {
                *stats = Some(PartStats {
                    reg_id: reg.id(),
                    ops: reg.counter(&format!("space.part.{sig}.ops")),
                    occupancy: reg.gauge(&format!("space.part.{sig}.occupancy")),
                });
            }
            let ps = stats.as_ref().unwrap();
            ps.ops.add(n);
            ps.occupancy.set(occ as i64);
            reg.counter(global).add(n);
        });
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
        let sig = t.sig();
        let part = self.partition(sig.clone());
        let mut tuples = part.tuples.lock();
        // Record under the partition lock so the trace order of this
        // tuple's production agrees with its real visibility order.
        self.rec.record(|| TraceEvent::OutVisible {
            actor: trace::current_actor(),
            tuple: t.clone(),
        });
        tuples.push(t);
        self.len.fetch_add(1, Ordering::SeqCst);
        self.note_part(&part, &sig, tuples.len(), "space.ops.out", 1);
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
        for (i, (guard, batch)) in guards.iter_mut().zip(batches.iter_mut()).enumerate() {
            for t in batch.iter() {
                self.rec.record(|| TraceEvent::OutVisible {
                    actor: trace::current_actor(),
                    tuple: t.clone(),
                });
            }
            self.len.fetch_add(batch.len(), Ordering::SeqCst);
            let n = batch.len() as u64;
            guard.append(batch);
            self.note_part(&parts[i], &sigs[i], guard.len(), "space.ops.out", n);
        }
        drop(guards);
        for part in &parts {
            part.cond.notify_all();
        }
    }

    /// Withdraw up to `max` matching tuples from a locked partition,
    /// recording a `Take` per tuple. The caller updates `self.len` and
    /// notes the partition op — this is what lets bulk takes acquire the
    /// partition lock once per batch instead of once per tuple.
    fn drain_matches(&self, tuples: &mut Vec<Tuple>, tmpl: &Template, max: usize) -> Vec<Tuple> {
        let mut got = Vec::new();
        while got.len() < max {
            match tuples.iter().position(|t| tmpl.matches(t)) {
                Some(idx) => {
                    let t = tuples.swap_remove(idx);
                    self.rec.record(|| TraceEvent::Take {
                        actor: trace::current_actor(),
                        tuple: t.clone(),
                    });
                    got.push(t);
                }
                None => break,
            }
        }
        got
    }

    fn wait_on_partition(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
        withdraw: bool,
        max: usize,
    ) -> Option<Vec<Tuple>> {
        // Waiting on a signature nobody has produced yet creates its
        // (empty) partition, so the eventual `out` finds our condvar.
        let sig = tmpl.sig();
        let part = self.partition(sig.clone());
        let mut tuples = part.tuples.lock();
        let mut parked = false;
        let mut block_start: Option<Instant> = None;
        loop {
            if let Some(c) = cancel {
                if c.load(Ordering::SeqCst) {
                    self.rec.record(|| TraceEvent::WaitCancelled {
                        actor: trace::current_actor(),
                    });
                    self.met
                        .with(|reg| reg.counter("space.ops.cancelled").inc());
                    if parked {
                        self.waiting.fetch_sub(1, Ordering::SeqCst);
                    }
                    return None;
                }
            }
            if let Some(idx) = tuples.iter().position(|t| tmpl.matches(t)) {
                if parked {
                    self.rec.record(|| TraceEvent::Wake {
                        actor: trace::current_actor(),
                    });
                    self.met.with(|reg| {
                        reg.counter("space.ops.wake").inc();
                        if let Some(start) = block_start {
                            reg.histogram("space.block_ns")
                                .observe(start.elapsed().as_nanos() as u64);
                        }
                    });
                }
                let got = if withdraw {
                    self.drain_matches(&mut tuples, tmpl, max)
                } else {
                    let t = tuples[idx].clone();
                    self.rec.record(|| TraceEvent::Read {
                        actor: trace::current_actor(),
                        tuple: t.clone(),
                    });
                    vec![t]
                };
                let global = if withdraw {
                    "space.ops.take"
                } else {
                    "space.ops.read"
                };
                self.note_part(&part, &sig, tuples.len(), global, got.len() as u64);
                if parked {
                    self.waiting.fetch_sub(1, Ordering::SeqCst);
                }
                return Some(got);
            }
            if !parked {
                parked = true;
                self.waiting.fetch_add(1, Ordering::SeqCst);
                self.rec.record(|| TraceEvent::Block {
                    actor: trace::current_actor(),
                    op: if withdraw { OpKind::In } else { OpKind::Rd },
                    template: tmpl.clone(),
                });
                if self.met.enabled() {
                    block_start = Some(Instant::now());
                    self.met.with(|reg| reg.counter("space.ops.block").inc());
                }
            }
            // Unbounded wait: an `out` into this partition notifies its
            // condvar under the same lock, and `kick` (cancellation) locks
            // the partition before notifying, so no wakeup can be lost.
            part.cond.wait(&mut tuples);
        }
    }
}

impl SpaceBackend for LocalBackend {
    fn kind(&self) -> &'static str {
        "local"
    }

    fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    fn out(&self, t: Tuple) -> Result<(), PlindaError> {
        self.do_out(t);
        Ok(())
    }

    fn out_all(&self, ts: Vec<Tuple>) -> Result<(), PlindaError> {
        self.do_out_all(ts);
        Ok(())
    }

    fn inp(&self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError> {
        let sig = tmpl.sig();
        if let Some(part) = self.existing(&sig) {
            let mut tuples = part.tuples.lock();
            // Order within a partition is not part of the Linda contract;
            // swap_remove keeps withdrawal O(1).
            if let Some(idx) = tuples.iter().position(|t| tmpl.matches(t)) {
                let t = tuples.swap_remove(idx);
                self.rec.record(|| TraceEvent::Take {
                    actor: trace::current_actor(),
                    tuple: t.clone(),
                });
                self.len.fetch_sub(1, Ordering::SeqCst);
                self.note_part(&part, &sig, tuples.len(), "space.ops.take", 1);
                return Ok(Some(t));
            }
        }
        self.rec.record(|| TraceEvent::Miss {
            actor: trace::current_actor(),
            op: OpKind::Inp,
            template: tmpl.clone(),
        });
        self.met.with(|reg| reg.counter("space.ops.miss").inc());
        Ok(None)
    }

    fn rdp(&self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError> {
        let sig = tmpl.sig();
        if let Some(part) = self.existing(&sig) {
            let tuples = part.tuples.lock();
            if let Some(t) = tuples.iter().find(|t| tmpl.matches(t)) {
                let t = t.clone();
                self.rec.record(|| TraceEvent::Read {
                    actor: trace::current_actor(),
                    tuple: t.clone(),
                });
                self.note_part(&part, &sig, tuples.len(), "space.ops.read", 1);
                return Ok(Some(t));
            }
        }
        self.rec.record(|| TraceEvent::Miss {
            actor: trace::current_actor(),
            op: OpKind::Rdp,
            template: tmpl.clone(),
        });
        self.met.with(|reg| reg.counter("space.ops.miss").inc());
        Ok(None)
    }

    fn in_cancellable(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Tuple>, PlindaError> {
        match self.wait_on_partition(tmpl, cancel, true, 1) {
            Some(mut got) => {
                self.len.fetch_sub(got.len(), Ordering::SeqCst);
                Ok(Some(got.remove(0)))
            }
            None => Ok(None),
        }
    }

    fn rd_cancellable(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Tuple>, PlindaError> {
        Ok(self
            .wait_on_partition(tmpl, cancel, false, 1)
            .map(|mut got| got.remove(0)))
    }

    fn inp_batch(&self, tmpl: &Template, max: usize) -> Result<Vec<Tuple>, PlindaError> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let sig = tmpl.sig();
        if let Some(part) = self.existing(&sig) {
            let mut tuples = part.tuples.lock();
            let got = self.drain_matches(&mut tuples, tmpl, max);
            if !got.is_empty() {
                self.len.fetch_sub(got.len(), Ordering::SeqCst);
                self.note_part(
                    &part,
                    &sig,
                    tuples.len(),
                    "space.ops.take",
                    got.len() as u64,
                );
                return Ok(got);
            }
        }
        self.rec.record(|| TraceEvent::Miss {
            actor: trace::current_actor(),
            op: OpKind::Inp,
            template: tmpl.clone(),
        });
        self.met.with(|reg| reg.counter("space.ops.miss").inc());
        Ok(Vec::new())
    }

    fn in_batch_cancellable(
        &self,
        tmpl: &Template,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError> {
        match self.wait_on_partition(tmpl, cancel, true, max.max(1)) {
            Some(got) => {
                self.len.fetch_sub(got.len(), Ordering::SeqCst);
                Ok(Some(got))
            }
            None => Ok(None),
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

    fn has_match(&self, tmpl: &Template) -> Result<bool, PlindaError> {
        Ok(match self.existing(&tmpl.sig()) {
            Some(part) => part.tuples.lock().iter().any(|t| tmpl.matches(t)),
            None => false,
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
        self.rec.record(|| TraceEvent::Reset {
            actor: trace::current_actor(),
        });
        self.met.with(|reg| reg.counter("space.ops.restore").inc());
        for g in guards.iter_mut() {
            g.clear();
        }
        // Restored tuples whose signature has no partition yet cannot be
        // pushed while holding the sorted guards (the registry lock must
        // come first); collect them and publish via `out` afterwards.
        let mut leftover = Vec::new();
        let total = tuples.len();
        'tuple: for t in tuples {
            let sig = t.sig();
            for (i, (k, _)) in parts.iter().enumerate() {
                if *k == sig {
                    self.rec.record(|| TraceEvent::OutVisible {
                        actor: trace::current_actor(),
                        tuple: t.clone(),
                    });
                    guards[i].push(t);
                    continue 'tuple;
                }
            }
            // `do_out` below records OutVisible for these itself.
            leftover.push(t);
        }
        self.len.store(total - leftover.len(), Ordering::SeqCst);
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
/// that land in that partition. Blocking calls take an optional *cancel
/// flag* so the runtime can abort a process that is parked inside `in` —
/// the PLinda server does exactly this when a workstation owner returns
/// (§7.1.1).
///
/// The infallible methods (`out`, `inp`, `in_blocking`, …) panic on a
/// transport failure (broker death, malformed frame); they cannot fail on
/// the local backend. The transaction layer ([`crate::Process`]) uses
/// fallible internal paths instead, so worker code sees transport
/// failures as [`PlindaError`] values.
pub struct TupleSpace {
    /// Optional trace recorder; one relaxed load per op when disabled.
    /// Shared with the backend, which records space-level events.
    rec: Arc<RecorderSlot>,
    /// Optional metrics registry; one relaxed load per op when disabled.
    met: Arc<MetricsSlot>,
    backend: Arc<dyn SpaceBackend>,
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
        let rec = Arc::new(RecorderSlot::default());
        let met = Arc::new(MetricsSlot::default());
        let backend = Arc::new(LocalBackend::new(Arc::clone(&rec), Arc::clone(&met)));
        TupleSpace { rec, met, backend }
    }

    /// Connect to an `fpdm-spaced` broker listening on the Unix-domain
    /// socket at `path`. Every operation on the returned space is a
    /// request over the socket; see [`crate::net`] for the wire protocol
    /// and `DESIGN.md` ("Backends") for the failure semantics.
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let rec = Arc::new(RecorderSlot::default());
        let met = Arc::new(MetricsSlot::default());
        let backend = Arc::new(crate::net::SocketBackend::connect(
            path.as_ref(),
            Arc::clone(&rec),
            Arc::clone(&met),
        )?);
        Ok(TupleSpace { rec, met, backend })
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
    /// metrics; when absent the cost is a single relaxed atomic load per
    /// operation (see the `out_inp_cycle_metrics` bench).
    pub fn set_metrics(&self, reg: Option<MetricsRegistry>) {
        self.met.set(reg);
    }

    /// Clone of the installed metrics registry, if any.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.met.get()
    }

    /// Is a metrics registry currently installed? One relaxed load.
    pub fn metrics_enabled(&self) -> bool {
        self.met.enabled()
    }

    /// Run `f` against the installed metrics registry, if any
    /// (crate-internal: `Process`, `Runtime`, farm, and channels fold
    /// their metrics into the same registry as the space ops).
    ///
    /// Lock-order rule: callers may hold partition locks, so `f` must
    /// never re-enter the tuple space — compute any space-derived values
    /// (e.g. channel depths) *before* this call.
    #[inline]
    pub(crate) fn metric(&self, f: impl FnOnce(&MetricsRegistry)) {
        self.met.with(f);
    }

    /// Install (or, with `None`, remove) a trace [`Recorder`]. Every Linda
    /// operation on this space is appended to the recorder's trace; the
    /// `plinda::check` checkers analyse the result. Recording is a single
    /// atomic load per operation when disabled.
    pub fn set_recorder(&self, rec: Option<Recorder>) {
        self.rec.set(rec);
    }

    /// Is a trace recorder currently installed?
    pub fn recording(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Record a trace event if a recorder is installed (crate-internal:
    /// used by `Process`, `Runtime`, and the interleaving explorer to add
    /// transaction / lifecycle events to the same trace as the space ops).
    #[inline]
    pub(crate) fn record(&self, ev: impl FnOnce() -> TraceEvent) {
        self.rec.record(ev);
    }

    /// `out`: make `t` visible to every process. Never blocks. On the
    /// local backend, wakes only waiters parked on `t`'s signature
    /// partition.
    pub fn out(&self, t: Tuple) {
        self.try_out(t).unwrap_or_else(|e| Self::fail(e))
    }

    /// Fallible `out` (crate-internal: the transaction layer surfaces
    /// transport failures as errors instead of panicking).
    pub(crate) fn try_out(&self, t: Tuple) -> Result<(), PlindaError> {
        self.backend.out(t)
    }

    /// Bulk `out`: all of `ts` become visible atomically (used by
    /// transaction commit so a committed transaction's tuples appear
    /// atomically, even when they span signatures).
    pub fn out_all(&self, ts: Vec<Tuple>) {
        self.backend.out_all(ts).unwrap_or_else(|e| Self::fail(e))
    }

    /// Deferred `out`: on the socket backend the tuple is fire-and-forget
    /// — visibility may lag until this connection's next response-bearing
    /// operation or an explicit [`TupleSpace::flush`]; program order
    /// within the connection is preserved. On the local backend this is
    /// exactly [`TupleSpace::out`]. See `DESIGN.md` ("Backends").
    pub fn out_deferred(&self, t: Tuple) {
        self.backend
            .out_deferred(t)
            .unwrap_or_else(|e| Self::fail(e))
    }

    /// Bulk deferred `out`; see [`TupleSpace::out_deferred`].
    pub fn out_all_deferred(&self, ts: Vec<Tuple>) {
        self.backend
            .out_all_deferred(ts)
            .unwrap_or_else(|e| Self::fail(e))
    }

    /// Force application of this connection's deferred outs, returning how
    /// many tuples were acknowledged as applied since the last flush.
    pub fn flush(&self) -> u64 {
        self.backend.flush().unwrap_or_else(|e| Self::fail(e))
    }

    /// `inp`: withdraw a matching tuple if one exists, without blocking.
    pub fn inp(&self, tmpl: &Template) -> Option<Tuple> {
        self.try_inp(tmpl).unwrap_or_else(|e| Self::fail(e))
    }

    /// Bulk `inp`: withdraw up to `max` matching tuples without blocking —
    /// one partition-lock acquisition locally, one round trip remotely.
    pub fn inp_batch(&self, tmpl: &Template, max: usize) -> Vec<Tuple> {
        self.try_inp_batch(tmpl, max)
            .unwrap_or_else(|e| Self::fail(e))
    }

    pub(crate) fn try_inp_batch(
        &self,
        tmpl: &Template,
        max: usize,
    ) -> Result<Vec<Tuple>, PlindaError> {
        self.backend.inp_batch(tmpl, max)
    }

    /// Bulk `in`: block until at least one match is withdrawn, then drain
    /// up to `max - 1` more. Returns between 1 and `max` tuples.
    pub fn in_batch(&self, tmpl: &Template, max: usize) -> Vec<Tuple> {
        self.try_in_batch_cancellable(tmpl, max, None)
            .unwrap_or_else(|e| Self::fail(e))
            .expect("in_batch without cancel flag cannot be cancelled")
    }

    pub(crate) fn try_in_batch_cancellable(
        &self,
        tmpl: &Template,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError> {
        self.backend.in_batch_cancellable(tmpl, max, cancel)
    }

    pub(crate) fn try_inp(&self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError> {
        self.backend.inp(tmpl)
    }

    /// `rdp`: copy a matching tuple if one exists, without blocking.
    pub fn rdp(&self, tmpl: &Template) -> Option<Tuple> {
        self.try_rdp(tmpl).unwrap_or_else(|e| Self::fail(e))
    }

    pub(crate) fn try_rdp(&self, tmpl: &Template) -> Result<Option<Tuple>, PlindaError> {
        self.backend.rdp(tmpl)
    }

    /// Would `tmpl` match some visible tuple right now? A non-recording
    /// probe used by the interleaving explorer to decide enabledness
    /// without perturbing the trace.
    pub(crate) fn has_match(&self, tmpl: &Template) -> bool {
        self.backend
            .has_match(tmpl)
            .unwrap_or_else(|e| Self::fail(e))
    }

    /// `in`: withdraw a matching tuple, blocking until one is available.
    pub fn in_blocking(&self, tmpl: Template) -> Tuple {
        self.in_cancellable(&tmpl, None)
            .expect("in_blocking without cancel flag cannot be cancelled")
    }

    /// `rd`: copy a matching tuple, blocking until one is available.
    pub fn rd_blocking(&self, tmpl: Template) -> Tuple {
        self.rd_cancellable(&tmpl, None)
            .expect("rd_blocking without cancel flag cannot be cancelled")
    }

    /// `in` with cancellation: returns `None` if `cancel` becomes true
    /// while waiting (the process was killed).
    pub fn in_cancellable(&self, tmpl: &Template, cancel: Option<&AtomicBool>) -> Option<Tuple> {
        self.try_in_cancellable(tmpl, cancel)
            .unwrap_or_else(|e| Self::fail(e))
    }

    pub(crate) fn try_in_cancellable(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Tuple>, PlindaError> {
        self.backend.in_cancellable(tmpl, cancel)
    }

    /// `rd` with cancellation; see [`TupleSpace::in_cancellable`].
    pub fn rd_cancellable(&self, tmpl: &Template, cancel: Option<&AtomicBool>) -> Option<Tuple> {
        self.try_rd_cancellable(tmpl, cancel)
            .unwrap_or_else(|e| Self::fail(e))
    }

    pub(crate) fn try_rd_cancellable(
        &self,
        tmpl: &Template,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Tuple>, PlindaError> {
        self.backend.rd_cancellable(tmpl, cancel)
    }

    /// Wake every waiter so it re-checks its cancellation flag. On the
    /// local backend this notifies every partition's condvar; the socket
    /// backend's waits poll their flag, so it is a no-op there.
    pub(crate) fn kick(&self) {
        self.backend.kick();
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

    /// Replace the space contents from already-decoded tuples
    /// (crate-internal: the broker receives tuples, not checkpoint bytes).
    pub(crate) fn restore_tuples(&self, tuples: Vec<Tuple>) -> Result<(), PlindaError> {
        self.backend.restore(tuples)
    }

    /// Checkpoint to a file.
    pub fn checkpoint_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.checkpoint_bytes())
    }

    /// Restore from a file written by [`TupleSpace::checkpoint_file`].
    pub fn restore_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        let bytes = std::fs::read(path)?;
        self.restore_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    // --- transaction and continuation hooks (crate-internal) ----------

    /// A process opened a transaction (remote backends start tracking its
    /// tentative withdrawals).
    pub(crate) fn txn_begin(&self, pid: u64) -> Result<(), PlindaError> {
        self.backend.txn_begin(pid)
    }

    /// Atomically publish a committed transaction's outs and record its
    /// continuation.
    pub(crate) fn txn_commit(
        &self,
        pid: u64,
        publish: Vec<Tuple>,
        cont: Option<Tuple>,
    ) -> Result<(), PlindaError> {
        self.backend.txn_commit(pid, publish, cont)
    }

    /// Restore an aborted transaction's tentative withdrawals.
    pub(crate) fn txn_abort(&self, pid: u64, restore: Vec<Tuple>) -> Result<(), PlindaError> {
        self.backend.txn_abort(pid, restore)
    }

    /// Latest committed continuation of logical process `pid`, if any.
    pub(crate) fn cont_get(&self, pid: u64) -> Result<Option<Tuple>, PlindaError> {
        self.backend.cont_get(pid)
    }

    /// Drop the continuation of `pid` (process completed normally).
    pub(crate) fn cont_clear(&self, pid: u64) -> Result<(), PlindaError> {
        self.backend.cont_clear(pid)
    }
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
        let h = std::thread::spawn(move || ts2.in_cancellable(&task_tmpl(), Some(&c2)));
        std::thread::sleep(Duration::from_millis(30));
        cancel.store(true, Ordering::SeqCst);
        ts.kick();
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
        let ts = TupleSpace::new();
        let first = crate::metrics::MetricsRegistry::new();
        ts.set_metrics(Some(first.clone()));
        ts.out(tup!["task", 1]);
        let second = crate::metrics::MetricsRegistry::new();
        ts.set_metrics(Some(second.clone()));
        ts.out(tup!["task", 2]);
        assert_eq!(first.snapshot().counter("space.ops.out"), 1);
        assert_eq!(second.snapshot().counter("space.ops.out"), 1);
        ts.set_metrics(None);
        ts.out(tup!["task", 3]);
        assert_eq!(second.snapshot().counter("space.ops.out"), 1);
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
}
