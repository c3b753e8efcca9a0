//! A generic task-farm harness over the tuple space.
//!
//! Every parallel program in the dissertation is the same master/worker
//! skeleton (Figs. 3.4–3.10, 4.4–4.7, 6.1–6.2): the master `out`s task
//! tuples and collects result tuples; each worker loops `xstart` → `in`
//! task → compute (possibly `out`ing child tasks) → `out` results →
//! `xcommit`, and exits on a poison pill. [`TaskFarm`] implements that
//! skeleton once — worker spawning, task/result channels, poison-pill
//! shutdown, kill-schedule fault injection, and per-worker statistics —
//! leaving the application to supply only the per-task body.
//!
//! ## Wire protocol
//!
//! A farm named `name` owns three channels:
//!
//! * tasks: `["<name>.task", Int(key), Int(flag), …T fields]`. `key` is the
//!   routing key: always `0` under [`Dispatch::Bag`] (any worker takes any
//!   task — Linda's load balancing), the worker index under
//!   [`Dispatch::PerWorker`] (addressed delivery). `flag` is free for the
//!   application (task kind, tree level, …) except the reserved [`POISON`].
//! * results: a [`Chan<R>`] named `"<name>.result"`.
//! * a work counter: a [`Chan<i64>`] named `"<name>.wcount"`, for programs
//!   whose task graph grows dynamically (a worker that replaces one task
//!   with `n` children retires its task with [`WorkerScope::retire`]; the
//!   master blocks on the counter reaching zero with
//!   [`TaskFarm::await_quiescent`]).
//!
//! Poison pills carry [`Payload::placeholder`] so they share the task
//! channel's signature — and therefore its partition of the sharded space.
//!
//! ## Fault tolerance
//!
//! The per-task transaction is owned by the farm: the body runs between
//! `xstart` and `xcommit`, so a kill anywhere inside it aborts atomically
//! (the task tuple reappears, child tasks and results are discarded) and
//! the runtime re-spawns the worker, which re-enters the loop. Statistics
//! are recorded only after a successful commit, so they count completed
//! tasks exactly.

use crate::channel::{Chan, Payload};
use crate::check::Recorder;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::process::{PlindaError, Process};
use crate::runtime::{FaultPlan, Runtime};
use crate::space::TupleSpace;
use crate::template::{field, Field, Template};
use crate::value::{Tuple, TypeTag, Value};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reserved task flag: the poison pill. Applications may use any other
/// `i64` flag value.
pub const POISON: i64 = i64::MIN;

/// How tasks are routed to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Bag of tasks: any worker takes any task (key 0 for everyone).
    Bag,
    /// Addressed delivery: each task is keyed to one worker's index.
    PerWorker,
}

/// Configuration of a [`TaskFarm`].
#[derive(Clone)]
pub struct FarmConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Task routing discipline.
    pub dispatch: Dispatch,
    /// Fault injections: `(delay from farm start, worker index to kill)`.
    pub kill_schedule: Vec<(Duration, usize)>,
    /// Optional trace recorder, installed on the farm's space at start so
    /// the run can be audited with the `plinda::check` checkers.
    pub recorder: Option<Recorder>,
    /// Optional metrics registry, installed on the farm's space at start;
    /// [`TaskFarm::finish`] folds per-worker statistics into it and
    /// attaches a [`MetricsSnapshot`] to the [`FarmReport`].
    pub metrics: Option<MetricsRegistry>,
    /// Tuple space to run over. `None` (the default) creates a fresh
    /// in-process space; supply [`TupleSpace::connect_unix`]'s result to
    /// run the identical farm against an `fpdm-spaced` broker.
    pub space: Option<Arc<TupleSpace>>,
    /// How many tasks a worker withdraws per round-trip (bulk take). Each
    /// batch still commits as one transaction, so a kill mid-batch aborts
    /// and restores every task of the batch. `None` picks a backend
    /// default: 1 locally (withdrawals are cheap; keeps one task per
    /// transaction), 8 over a socket (amortizes the round-trip).
    pub prefetch: Option<usize>,
}

impl FarmConfig {
    /// A bag-of-tasks farm with `workers` workers and no fault injection.
    pub fn bag(workers: usize) -> Self {
        FarmConfig {
            workers,
            dispatch: Dispatch::Bag,
            kill_schedule: Vec::new(),
            recorder: None,
            metrics: None,
            space: None,
            prefetch: None,
        }
    }

    /// A per-worker (addressed) farm with `workers` workers.
    pub fn per_worker(workers: usize) -> Self {
        FarmConfig {
            workers,
            dispatch: Dispatch::PerWorker,
            kill_schedule: Vec::new(),
            recorder: None,
            metrics: None,
            space: None,
            prefetch: None,
        }
    }

    /// Add a kill of worker `index` after `delay`.
    pub fn kill_after(mut self, delay: Duration, index: usize) -> Self {
        self.kill_schedule.push((delay, index));
        self
    }

    /// Record the farm's run into `rec` for offline protocol checking.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Meter the farm's run into `reg` (live op counts while running,
    /// per-worker accounting folded in at [`TaskFarm::finish`]).
    pub fn with_metrics(mut self, reg: MetricsRegistry) -> Self {
        self.metrics = Some(reg);
        self
    }

    /// Run the farm over `space` instead of a fresh in-process one —
    /// backend selection is this one line; worker code is untouched.
    pub fn with_space(mut self, space: Arc<TupleSpace>) -> Self {
        self.space = Some(space);
        self
    }

    /// Withdraw up to `n` tasks per worker round-trip (see
    /// [`FarmConfig::prefetch`]).
    pub fn with_prefetch(mut self, n: usize) -> Self {
        self.prefetch = Some(n.max(1));
        self
    }
}

/// Whole-lifetime statistics of one worker, accumulated across every
/// incarnation (kills and re-spawns do not reset them — the cells live in
/// the farm, not the worker thread).
#[derive(Debug, Clone, Copy)]
pub struct WorkerStats {
    /// Tasks whose transaction committed.
    pub tasks: u64,
    /// Wall-clock time spent inside committed task bodies.
    pub busy: Duration,
    /// Wall-clock time spent blocked withdrawing tasks (including waits
    /// that ended in a kill rather than a task).
    pub blocked: Duration,
    /// Wall-clock lifetime of the worker, from farm start to its exit.
    pub wall: Duration,
    /// Times this worker was killed and re-spawned.
    pub respawns: u64,
}

impl WorkerStats {
    /// Lifetime not spent computing or blocked on the task channel
    /// (scheduling overhead, transaction bookkeeping, abort/recovery).
    pub fn idle(&self) -> Duration {
        self.wall.saturating_sub(self.busy + self.blocked)
    }
}

/// Final report returned by [`TaskFarm::finish`].
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Per-worker statistics, indexed by worker index.
    pub worker_stats: Vec<WorkerStats>,
    /// Process re-spawns performed by the runtime (detected failures).
    pub respawns: u64,
    /// Tuples still visible in the farm's space after every worker
    /// exited. A well-behaved program drains its channels: anything here
    /// is a leak unless the caller deliberately left it (e.g. a broadcast
    /// it has yet to withdraw). On a farm-private space (no
    /// [`FarmConfig::with_space`]) this is the whole space; on a shared
    /// space it is scoped to tuples whose leading field names one of this
    /// farm's channels (`"<name>."` prefix), so concurrent farms — e.g.
    /// multi-tenant service jobs over one warm backend — do not see each
    /// other's in-flight tuples as leaks.
    pub leaked: Vec<Tuple>,
    /// Snapshot of the farm's metrics registry, taken after the worker
    /// statistics were folded in. `None` unless the farm was configured
    /// with [`FarmConfig::with_metrics`].
    pub metrics: Option<MetricsSnapshot>,
}

struct StatsCell {
    tasks: AtomicU64,
    nanos: AtomicU64,
    blocked_nanos: AtomicU64,
    wall_nanos: AtomicU64,
    /// Incarnations started (1 for an unkilled worker; respawns + 1).
    spawns: AtomicU64,
}

/// The task channel: hand-rolled rather than a [`crate::channel::KeyedChan`]
/// because it carries both a routing key and a flag ahead of the payload.
struct TaskChan<T: Payload> {
    name: String,
    _t: PhantomData<fn(T) -> T>,
}

impl<T: Payload> Clone for TaskChan<T> {
    fn clone(&self) -> Self {
        TaskChan {
            name: self.name.clone(),
            _t: PhantomData,
        }
    }
}

impl<T: Payload> TaskChan<T> {
    fn new(farm: &str) -> Self {
        TaskChan {
            name: format!("{farm}.task"),
            _t: PhantomData,
        }
    }

    fn tuple(&self, key: i64, flag: i64, payload: &T) -> Tuple {
        let mut vs = vec![
            Value::Str(self.name.clone()),
            Value::Int(key),
            Value::Int(flag),
        ];
        vs.extend(payload.to_values());
        Tuple(vs)
    }

    fn template_for(&self, key: i64) -> Template {
        let mut fs = vec![
            field::val(self.name.as_str()),
            field::val(key),
            Field::Formal(TypeTag::Int),
        ];
        fs.extend(T::tags().into_iter().map(field::of));
        Template::new(fs)
    }
}

/// The handle a task body uses to talk back to the farm: emit child tasks,
/// publish results, retire the work counter — all inside the task's
/// transaction — plus an escape hatch to the raw [`Process`].
pub struct WorkerScope<'a, T: Payload, R: Payload> {
    proc: &'a mut Process,
    index: usize,
    tasks: &'a TaskChan<T>,
    results: &'a Chan<R>,
    counter: &'a Chan<i64>,
}

impl<T: Payload, R: Payload> WorkerScope<'_, T, R> {
    /// This worker's index (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Emit a child task into the bag (key 0).
    pub fn emit(&mut self, flag: i64, payload: &T) {
        self.proc.out(self.tasks.tuple(0, flag, payload));
    }

    /// Emit a child task addressed to worker `index`.
    pub fn emit_to(&mut self, index: usize, flag: i64, payload: &T) {
        self.proc.out(self.tasks.tuple(index as i64, flag, payload));
    }

    /// Publish a result.
    pub fn result(&mut self, payload: &R) {
        self.results.send_txn(self.proc, payload);
    }

    /// Retire the current task against the work counter, replacing it with
    /// `n_children` new tasks: counter += n_children - 1. Runs inside the
    /// task transaction, so the counter update, the child `emit`s, and the
    /// task withdrawal commit atomically (the PLET load-balanced workers'
    /// invariant: the counter always bounds outstanding work).
    pub fn retire(&mut self, n_children: i64) -> Result<(), PlindaError> {
        let c = self.counter.recv_txn(self.proc)?;
        self.counter.send_txn(self.proc, &(c + n_children - 1));
        Ok(())
    }

    /// The underlying transactional process, for operations the scope does
    /// not model (broadcast `rd`s, continuations, auxiliary channels).
    pub fn proc(&mut self) -> &mut Process {
        self.proc
    }
}

/// A running master/worker task farm. See the module docs for the model.
pub struct TaskFarm<T: Payload, R: Payload> {
    rt: Runtime,
    space: Arc<TupleSpace>,
    cfg: FarmConfig,
    name: String,
    pids: Vec<u64>,
    epoch: Instant,
    tasks: TaskChan<T>,
    results: Chan<R>,
    counter: Chan<i64>,
    stats: Arc<Vec<StatsCell>>,
}

impl<T: Payload + 'static, R: Payload + 'static> TaskFarm<T, R> {
    /// Spawn `cfg.workers` workers named `name` running `body` for each
    /// task, and start the kill schedule. The body receives the task's
    /// flag and payload; the farm wraps each call in a transaction.
    pub fn start<F>(name: &str, cfg: FarmConfig, body: F) -> Self
    where
        F: Fn(&mut WorkerScope<'_, T, R>, i64, T) -> Result<(), PlindaError>
            + Send
            + Sync
            + 'static,
    {
        let rt = Runtime::with_space(
            cfg.space
                .clone()
                .unwrap_or_else(|| Arc::new(TupleSpace::new())),
        );
        let space = rt.space();
        if let Some(rec) = &cfg.recorder {
            space.set_recorder(Some(rec.clone()));
        }
        if let Some(reg) = &cfg.metrics {
            space.set_metrics(Some(reg.clone()));
        }
        let tasks = TaskChan::<T>::new(name);
        let results = Chan::<R>::new(format!("{name}.result"));
        let counter = Chan::<i64>::new(format!("{name}.wcount"));
        let stats: Arc<Vec<StatsCell>> = Arc::new(
            (0..cfg.workers)
                .map(|_| StatsCell {
                    tasks: AtomicU64::new(0),
                    nanos: AtomicU64::new(0),
                    blocked_nanos: AtomicU64::new(0),
                    wall_nanos: AtomicU64::new(0),
                    spawns: AtomicU64::new(0),
                })
                .collect(),
        );
        let epoch = Instant::now();
        let body = Arc::new(body);
        // Local withdrawals are a mutex acquisition — keep one task per
        // transaction. Socket withdrawals cost a round-trip — amortize it.
        let prefetch = cfg
            .prefetch
            .unwrap_or(if space.backend_kind() == "local" {
                1
            } else {
                8
            })
            .max(1);
        let mut pids = Vec::with_capacity(cfg.workers);
        for index in 0..cfg.workers {
            let key = match cfg.dispatch {
                Dispatch::Bag => 0,
                Dispatch::PerWorker => index as i64,
            };
            let tasks_w = tasks.clone();
            let results_w = results.clone();
            let counter_w = counter.clone();
            let stats_w = Arc::clone(&stats);
            let body_w = Arc::clone(&body);
            pids.push(rt.spawn(name, move |proc| {
                // The runtime re-invokes this closure on every re-spawn;
                // the stats cells live in the farm, so each incarnation
                // accumulates into the same whole-lifetime totals.
                let cell = &stats_w[index];
                cell.spawns.fetch_add(1, Ordering::Relaxed);
                loop {
                    proc.xstart()?;
                    // Measure the blocked wait *before* propagating a kill,
                    // so time spent parked by a wait that ends in a kill
                    // still counts as blocked time.
                    let wait = Instant::now();
                    let got = proc.in_batch(tasks_w.template_for(key), prefetch);
                    cell.blocked_nanos
                        .fetch_add(wait.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    let batch = got?;
                    let mut exit = false;
                    let mut done = 0u64;
                    let started = Instant::now();
                    for t in batch {
                        let flag = t.int(2);
                        if flag == POISON {
                            if exit {
                                // A colleague's pill rode along in this
                                // batch; put it back for them.
                                proc.out(tasks_w.tuple(key, POISON, &T::placeholder()));
                            }
                            exit = true;
                            continue;
                        }
                        let payload = T::from_values(&t.0[3..]);
                        let mut scope = WorkerScope {
                            proc,
                            index,
                            tasks: &tasks_w,
                            results: &results_w,
                            counter: &counter_w,
                        };
                        body_w(&mut scope, flag, payload)?;
                        done += 1;
                    }
                    // One commit covers the whole batch: a kill anywhere
                    // inside it restores every withdrawn task.
                    proc.xcommit(None)?;
                    // Only committed tasks count: an aborted body's time
                    // belongs to the failure, not the work.
                    cell.tasks.fetch_add(done, Ordering::Relaxed);
                    if done > 0 {
                        cell.nanos
                            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    if exit {
                        cell.wall_nanos
                            .store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        return Ok(());
                    }
                }
            }));
        }
        let mut plan = FaultPlan::new();
        for &(delay, index) in &cfg.kill_schedule {
            plan = plan.kill_after(delay, pids[index]);
        }
        if !plan.is_empty() {
            rt.inject(plan);
        }
        TaskFarm {
            rt,
            space,
            cfg,
            name: name.to_owned(),
            pids,
            epoch,
            tasks,
            results,
            counter,
            stats,
        }
    }

    /// The farm's tuple space (for auxiliary channels and direct ops).
    pub fn space(&self) -> &Arc<TupleSpace> {
        &self.space
    }

    /// Emit a task into the bag.
    pub fn send(&self, flag: i64, payload: &T) {
        debug_assert_eq!(
            self.cfg.dispatch,
            Dispatch::Bag,
            "send() on a per-worker farm; use send_to"
        );
        self.space.out(self.tasks.tuple(0, flag, payload));
    }

    /// Emit a task addressed to worker `index`.
    pub fn send_to(&self, index: usize, flag: i64, payload: &T) {
        self.space
            .out(self.tasks.tuple(index as i64, flag, payload));
    }

    /// Emit a batch of tasks into the bag in one deferred burst: over a
    /// socket the tuples ride the connection's write-coalescing buffer
    /// (no per-task round trip) and are visible no later than the
    /// master's next response-bearing operation — in particular before a
    /// following [`TaskFarm::seed_counter`] lands.
    pub fn send_all(&self, flag: i64, payloads: &[T]) {
        debug_assert_eq!(
            self.cfg.dispatch,
            Dispatch::Bag,
            "send_all() on a per-worker farm; use send_to"
        );
        self.space.out_all_deferred(
            payloads
                .iter()
                .map(|p| self.tasks.tuple(0, flag, p))
                .collect(),
        );
    }

    /// Blocking withdrawal of the next result.
    pub fn recv(&self) -> R {
        self.recv_upto(1).swap_remove(0)
    }

    /// Blocking bulk withdrawal: at least one result, at most `max`, in
    /// one bulk-take round trip.
    pub fn recv_upto(&self, max: usize) -> Vec<R> {
        self.master_take(&self.results, &self.results.template(), max)
    }

    /// A master wait on `chan`. A worker panic cancels it and is
    /// re-raised here, on the caller's thread: the results the dead
    /// worker owed would otherwise never arrive.
    fn master_take<P: Payload>(&self, chan: &Chan<P>, tmpl: &Template, max: usize) -> Vec<P> {
        chan.take(&self.space, tmpl, max, Some(self.rt.panicked()))
            .unwrap_or_else(|| self.rt.raise_worker_panic())
    }

    /// Non-blocking withdrawal of a result.
    pub fn try_recv(&self) -> Option<R> {
        self.results.try_recv(&self.space)
    }

    /// Withdraw every currently available result, in bulk.
    pub fn drain(&self) -> Vec<R> {
        self.results.drain(&self.space)
    }

    /// Seed the work counter with `n` outstanding tasks. Emit the matching
    /// tasks *before* seeding, as the dissertation's masters do: a worker
    /// that retires a task before the seed appears simply blocks on the
    /// counter channel.
    pub fn seed_counter(&self, n: i64) {
        self.counter.send(&self.space, &n);
    }

    /// Block until the work counter reaches zero, withdrawing the zero
    /// tuple (so the counter channel ends empty).
    pub fn await_quiescent(&self) {
        self.master_take(&self.counter, &self.counter.template_eq(&0), 1);
    }

    /// Failures detected (and re-spawns performed) so far.
    pub fn respawns(&self) -> u64 {
        self.rt.respawns()
    }

    /// Kill worker `index`'s current incarnation (the runtime re-spawns
    /// it). Complements the time-based [`FarmConfig::kill_after`] schedule
    /// with a deterministic, caller-sequenced kill for tests.
    pub fn kill_worker(&self, index: usize) -> bool {
        self.rt.kill(self.pids[index])
    }

    /// Poison every worker, wait for them to exit, and report statistics.
    ///
    /// When the farm was configured with [`FarmConfig::with_metrics`],
    /// the per-worker totals are folded into the registry as
    /// `farm.<name>.worker.<i>.{tasks,busy_ns,blocked_ns,wall_ns,respawns}`
    /// counters plus a `farm.<name>.leaked` counter, and the report
    /// carries a snapshot taken after the fold (so the snapshot is a
    /// complete, quiescent ledger of the run).
    pub fn finish(self) -> FarmReport {
        let pill = T::placeholder();
        for index in 0..self.cfg.workers {
            let key = match self.cfg.dispatch {
                Dispatch::Bag => 0,
                Dispatch::PerWorker => index as i64,
            };
            self.space.out(self.tasks.tuple(key, POISON, &pill));
        }
        self.rt.join();
        if self.rt.panicked().load(Ordering::SeqCst) {
            self.rt.raise_worker_panic();
        }
        let finished = self.epoch.elapsed().as_nanos() as u64;
        let worker_stats: Vec<WorkerStats> = self
            .stats
            .iter()
            .map(|c| {
                // A worker that exited through the runtime's shutdown path
                // (killed during teardown) never stored its wall time; it
                // lived until the join we just completed.
                if c.wall_nanos.load(Ordering::Relaxed) == 0 {
                    c.wall_nanos.store(finished, Ordering::Relaxed);
                }
                WorkerStats {
                    tasks: c.tasks.load(Ordering::Relaxed),
                    busy: Duration::from_nanos(c.nanos.load(Ordering::Relaxed)),
                    blocked: Duration::from_nanos(c.blocked_nanos.load(Ordering::Relaxed)),
                    wall: Duration::from_nanos(c.wall_nanos.load(Ordering::Relaxed)),
                    respawns: c.spawns.load(Ordering::Relaxed).saturating_sub(1),
                }
            })
            .collect();
        // A farm handed a shared space owns only its own channel
        // namespace; everything else in the snapshot belongs to
        // neighbours (other tenants' farms, service session channels).
        let leaked = if self.cfg.space.is_some() {
            let prefix = format!("{}.", self.name);
            self.space
                .snapshot()
                .into_iter()
                .filter(|t| matches!(t.0.first(), Some(Value::Str(s)) if s.starts_with(&prefix)))
                .collect()
        } else {
            self.space.snapshot()
        };
        let metrics = self.cfg.metrics.as_ref().map(|reg| {
            for (i, s) in worker_stats.iter().enumerate() {
                let base = format!("farm.{}.worker.{i}", self.name);
                reg.counter(&format!("{base}.tasks")).add(s.tasks);
                reg.counter(&format!("{base}.busy_ns"))
                    .add(s.busy.as_nanos() as u64);
                reg.counter(&format!("{base}.blocked_ns"))
                    .add(s.blocked.as_nanos() as u64);
                reg.counter(&format!("{base}.wall_ns"))
                    .add(s.wall.as_nanos() as u64);
                reg.counter(&format!("{base}.respawns")).add(s.respawns);
            }
            reg.counter(&format!("farm.{}.leaked", self.name))
                .add(leaked.len() as u64);
            reg.snapshot()
        });
        FarmReport {
            worker_stats,
            respawns: self.rt.respawns(),
            leaked,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_farm_squares() {
        let farm = TaskFarm::<i64, (i64, i64)>::start("sq", FarmConfig::bag(4), |s, _flag, v| {
            s.result(&(v, v * v));
            Ok(())
        });
        for i in 0..20i64 {
            farm.send(0, &i);
        }
        let mut sum = 0;
        for _ in 0..20 {
            sum += farm.recv().1;
        }
        let report = farm.finish();
        assert_eq!(sum, (0..20i64).map(|i| i * i).sum::<i64>());
        assert_eq!(report.worker_stats.iter().map(|s| s.tasks).sum::<u64>(), 20);
        assert_eq!(report.respawns, 0);
    }

    #[test]
    fn prefetched_batches_commit_atomically() {
        // Bulk-take farm on the local backend: workers pull up to 4 tasks
        // per transaction; every task still commits exactly once and both
        // workers exit even when one batch drains both poison pills.
        let cfg = FarmConfig::bag(2).with_prefetch(4);
        let farm = TaskFarm::<i64, i64>::start("pre", cfg, |s, _, v| {
            s.result(&(v + 1));
            Ok(())
        });
        for i in 0..20i64 {
            farm.send(0, &i);
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(farm.recv());
        }
        got.sort_unstable();
        assert_eq!(got, (1..=20i64).collect::<Vec<_>>());
        let space = Arc::clone(farm.space());
        let report = farm.finish();
        assert_eq!(report.worker_stats.iter().map(|s| s.tasks).sum::<u64>(), 20);
        assert!(space.is_empty(), "all tasks and pills consumed");
    }

    #[test]
    fn per_worker_dispatch_routes_by_index() {
        let farm =
            TaskFarm::<i64, (i64, i64)>::start("route", FarmConfig::per_worker(3), |s, _, v| {
                s.result(&(s.index() as i64, v));
                Ok(())
            });
        for w in 0..3 {
            farm.send_to(w, 0, &(w as i64 * 100));
        }
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(farm.recv());
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0), (1, 100), (2, 200)]);
        farm.finish();
    }

    #[test]
    fn dynamic_tasks_and_quiescence() {
        // Each task at depth d > 0 spawns two children at depth d-1; leaves
        // produce one result. Counter tracks outstanding tasks.
        let farm = TaskFarm::<i64, i64>::start("tree", FarmConfig::bag(4), |s, _, depth| {
            if depth == 0 {
                s.result(&1);
                s.retire(0)?;
            } else {
                s.emit(0, &(depth - 1));
                s.emit(0, &(depth - 1));
                s.retire(2)?;
            }
            Ok(())
        });
        farm.send(0, &4);
        farm.seed_counter(1);
        farm.await_quiescent();
        let leaves = farm.drain();
        assert_eq!(leaves.len(), 16, "2^4 leaves");
        let report = farm.finish();
        // 1 + 2 + 4 + 8 + 16 internal+leaf tasks committed.
        assert_eq!(report.worker_stats.iter().map(|s| s.tasks).sum::<u64>(), 31);
    }

    #[test]
    fn kill_schedule_respawns_and_completes() {
        let cfg = FarmConfig::bag(2)
            .kill_after(Duration::from_millis(2), 0)
            .kill_after(Duration::from_millis(4), 1);
        let farm = TaskFarm::<i64, i64>::start("faulty", cfg, |s, _, v| {
            // Enough per-task work that kills land mid-stream.
            std::thread::sleep(Duration::from_micros(200));
            s.result(&(v * 3));
            Ok(())
        });
        for i in 0..60i64 {
            farm.send(0, &i);
        }
        let mut results = Vec::new();
        for _ in 0..60 {
            results.push(farm.recv());
        }
        results.sort_unstable();
        assert_eq!(results, (0..60i64).map(|i| i * 3).collect::<Vec<_>>());
        let report = farm.finish();
        assert!(report.respawns >= 1, "at least one injected kill landed");
        // Every task committed exactly once despite the kills.
        assert_eq!(report.worker_stats.iter().map(|s| s.tasks).sum::<u64>(), 60);
    }

    #[test]
    fn stats_survive_mid_run_kill_and_respawn() {
        // Regression: per-worker statistics must accumulate across the
        // kill/respawn boundary, not reset with the new incarnation. One
        // worker, deterministic kill while it is idle-blocked on the task
        // channel (all results already received), then more work.
        let farm = TaskFarm::<i64, i64>::start("persist", FarmConfig::bag(1), |s, _, v| {
            s.result(&(v + 1));
            Ok(())
        });
        for i in 0..5i64 {
            farm.send(0, &i);
        }
        for _ in 0..5 {
            farm.recv();
        }
        // The worker is now parked in `in` with no tasks outstanding; the
        // kill is guaranteed to land on a live, idle incarnation.
        assert!(farm.kill_worker(0));
        for i in 0..5i64 {
            farm.send(0, &(10 + i));
        }
        for _ in 0..5 {
            farm.recv();
        }
        let report = farm.finish();
        let s = report.worker_stats[0];
        assert_eq!(
            s.tasks, 10,
            "tasks from before the kill must still be counted"
        );
        assert_eq!(s.respawns, 1, "exactly one kill landed");
        assert_eq!(report.respawns, 1);
        assert!(
            s.blocked > Duration::ZERO,
            "the killed wait counts as blocked time"
        );
        assert!(
            s.wall >= s.busy + s.blocked,
            "wall {:?} ≥ busy {:?} + blocked {:?}",
            s.wall,
            s.busy,
            s.blocked
        );
    }

    #[test]
    fn metered_farm_report_carries_consistent_snapshot() {
        let reg = crate::metrics::MetricsRegistry::new();
        let cfg = FarmConfig::bag(2).with_metrics(reg.clone());
        let farm = TaskFarm::<i64, i64>::start("met", cfg, |s, _, v| {
            s.result(&(v * 2));
            Ok(())
        });
        for i in 0..10i64 {
            farm.send(0, &i);
        }
        for _ in 0..10 {
            farm.recv();
        }
        let report = farm.finish();
        let snap = report.metrics.expect("metered farm attaches a snapshot");
        assert_eq!(
            snap.sum_counters(|k| k.starts_with("farm.met.worker.") && k.ends_with(".tasks")),
            10
        );
        assert_eq!(snap.counter("farm.met.leaked"), 0);
        assert_eq!(snap.counter("txn.commit"), 12, "10 tasks + 2 poison pills");
        let violations = crate::metrics::check_snapshot(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn poison_does_not_leak_into_results() {
        let farm = TaskFarm::<(i64, Vec<u8>), Vec<u8>>::start(
            "bytes",
            FarmConfig::bag(2),
            |s, _, (n, mut b)| {
                b.push(n as u8);
                s.result(&b);
                Ok(())
            },
        );
        farm.send(0, &(7, vec![1, 2]));
        assert_eq!(farm.recv(), vec![1, 2, 7]);
        let space = Arc::clone(farm.space());
        let report = farm.finish();
        assert_eq!(report.worker_stats.iter().map(|s| s.tasks).sum::<u64>(), 1);
        // Workers consumed their pills; no task or result tuples remain.
        assert!(space.is_empty());
    }
}
