//! The PLinda runtime: process spawning, failure detection, re-spawn.
//!
//! Plays the combined role of the PLinda server and the per-workstation
//! daemons (§7.1.1): it spawns worker processes (`proc_eval`), kills them
//! when "the workstation owner returns" (here: [`Runtime::kill`] or an
//! injected [`FaultPlan`]), aborts the victim's open transaction so no
//! partial effects remain visible, and re-spawns the process — which
//! resumes from its last committed continuation via `xrecover`.
//!
//! Combined with transactional tuple operations this delivers PLinda's
//! guarantee (§7.1.2): a completed computation, with or without failures,
//! reaches the same final state as a failure-free execution.

use crate::probe::Event;
use crate::process::{PlindaError, Process, ProcessState, ProcessStatus};
use crate::space::TupleSpace;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The result type of a PLinda worker function.
pub type WorkerResult = Result<(), PlindaError>;

struct Registry {
    /// Live incarnation state per logical pid.
    procs: HashMap<u64, Arc<ProcessState>>,
    /// Display names per logical pid.
    names: HashMap<u64, String>,
    handles: Vec<JoinHandle<()>>,
    /// Schedule seats of the spawned threads (scheduled spaces only).
    seats: Vec<usize>,
}

/// The PLinda runtime (server + daemons).
pub struct Runtime {
    space: Arc<TupleSpace>,
    registry: Mutex<Registry>,
    next_pid: AtomicU64,
    respawns: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    ckpt_stop: Arc<AtomicBool>,
    panicked: Arc<Panicked>,
}

/// The first worker panic of a runtime.
#[derive(Default)]
struct Panicked {
    /// Raised after `message` is set.
    flag: AtomicBool,
    message: Mutex<Option<String>>,
}

/// The message a panic was raised with.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string payload>")
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// Create a runtime with a fresh in-process tuple space.
    pub fn new() -> Self {
        Self::with_space(Arc::new(TupleSpace::new()))
    }

    /// Create a runtime over an existing tuple space — in particular one
    /// obtained from [`TupleSpace::connect_unix`], which puts every worker
    /// of this runtime on a remote `fpdm-spaced` broker with zero changes
    /// to the worker code.
    pub fn with_space(space: Arc<TupleSpace>) -> Self {
        Runtime {
            space,
            registry: Mutex::new(Registry {
                procs: HashMap::new(),
                names: HashMap::new(),
                handles: Vec::new(),
                seats: Vec::new(),
            }),
            next_pid: AtomicU64::new(1),
            respawns: Arc::new(AtomicU64::new(0)),
            shutdown: Arc::new(AtomicBool::new(false)),
            ckpt_stop: Arc::new(AtomicBool::new(false)),
            panicked: Arc::default(),
        }
    }

    /// The shared tuple space (masters usually drive it directly).
    pub fn space(&self) -> Arc<TupleSpace> {
        Arc::clone(&self.space)
    }

    /// Total process re-spawns performed so far (each corresponds to one
    /// detected failure).
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::SeqCst)
    }

    /// A transactional [`Process`] handle running on the *caller's* thread
    /// — how the master programs in the dissertation execute.
    pub fn master(&self) -> Process {
        let pid = self.next_pid.fetch_add(1, Ordering::SeqCst);
        let state = Arc::new(ProcessState::new());
        self.registry.lock().procs.insert(pid, Arc::clone(&state));
        Process::new(pid, self.space(), state)
    }

    /// Raised once a worker of this runtime panicked: the cancel flag of a
    /// master wait that the dead worker might otherwise leave parked
    /// forever.
    pub(crate) fn panicked(&self) -> &AtomicBool {
        &self.panicked.flag
    }

    /// Panic on the calling thread with the message of the worker panic
    /// that raised [`Runtime::panicked`].
    pub(crate) fn raise_worker_panic(&self) -> ! {
        let message = self.panicked.message.lock().clone();
        panic!("{}", message.unwrap_or_default())
    }

    /// `proc_eval`: spawn a worker process running `f` on its own thread.
    ///
    /// If the process is killed, its open transaction is aborted and it is
    /// re-spawned (same logical pid, so `xrecover` finds the predecessor's
    /// continuation) until it completes with `Ok(())` or the runtime shuts
    /// down. Returns the logical pid. If `f` panics, its open transaction
    /// is aborted and the worker retires without a respawn — a panic is a
    /// bug, not a machine failure — and the runtime records the panic, so
    /// a [`crate::TaskFarm`] master waiting on the worker panics with its
    /// message instead of waiting forever.
    pub fn spawn<F>(&self, name: &str, f: F) -> u64
    where
        F: Fn(&mut Process) -> WorkerResult + Send + Sync + 'static,
    {
        let pid = self.next_pid.fetch_add(1, Ordering::SeqCst);
        let state = Arc::new(ProcessState::new());
        let space = self.space();
        let thread_state = Arc::clone(&state);
        let respawns = Arc::clone(&self.respawns);
        let shutdown = Arc::clone(&self.shutdown);
        let panicked = Arc::clone(&self.panicked);
        let name = name.to_owned();
        // On the explorer's scheduled space the thread takes its seat here,
        // in the spawning thread, so schedule choice never races its
        // start-up; it leaves the schedule when the seat drops on exit.
        let seat = space.schedule().map(|s| s.register());
        let seat_id = seat.as_ref().map(|s| s.id());
        let handle = std::thread::Builder::new()
            .name(format!("plinda-{name}-{pid}"))
            .spawn(move || {
                let _seat = seat.map(|s| s.entered());
                space.emit(Event::Spawn);
                let protocol_error = loop {
                    let mut proc = Process::new(pid, Arc::clone(&space), Arc::clone(&thread_state));
                    thread_state.set_status(ProcessStatus::Running);
                    match catch_unwind(AssertUnwindSafe(|| f(&mut proc))) {
                        Err(payload) => {
                            proc.abort();
                            thread_state.set_status(ProcessStatus::Done);
                            let message = format!(
                                "plinda worker {pid} panicked: {}",
                                panic_message(&*payload)
                            );
                            panicked.message.lock().get_or_insert(message);
                            panicked.flag.store(true, Ordering::SeqCst);
                            space.backend().kick();
                            break false;
                        }
                        Ok(Ok(())) => {
                            let _ = space.backend().cont_clear(pid);
                            thread_state.set_status(ProcessStatus::Done);
                            break false;
                        }
                        Ok(Err(PlindaError::Killed)) => {
                            proc.abort();
                            if shutdown.load(Ordering::SeqCst) {
                                break false;
                            }
                            respawns.fetch_add(1, Ordering::SeqCst);
                            // "Re-spawned on another machine": same logical
                            // pid, fresh incarnation.
                            thread_state.revive();
                            space.emit(Event::Respawn { pid });
                            space.backend().kick();
                        }
                        Ok(Err(other)) => {
                            // A protocol violation (nested xstart, commit
                            // outside a transaction) is not a machine failure:
                            // abort the open transaction so no partial effects
                            // remain, leave the violation in the trace for the
                            // checkers, and retire the worker rather than
                            // killing the whole test process.
                            eprintln!("plinda: worker {pid} protocol violation: {other}");
                            proc.abort();
                            thread_state.set_status(ProcessStatus::Done);
                            break true;
                        }
                    }
                };
                space.emit(Event::Done {
                    pid,
                    protocol_error,
                });
            })
            .expect("failed to spawn worker thread");
        let mut reg = self.registry.lock();
        reg.procs.insert(pid, state);
        reg.names.insert(pid, name);
        reg.handles.push(handle);
        reg.seats.extend(seat_id);
        pid
    }

    /// Spawn `n` identical workers; returns their pids.
    pub fn spawn_n<F>(&self, name: &str, n: usize, f: F) -> Vec<u64>
    where
        F: Fn(&mut Process) -> WorkerResult + Clone + Send + Sync + 'static,
    {
        (0..n).map(|_| self.spawn(name, f.clone())).collect()
    }

    /// Kill the current incarnation of logical process `pid` (simulated
    /// workstation-owner return / machine crash). The victim observes the
    /// kill at its next tuple operation — or immediately, if blocked in
    /// `in`/`rd` — and the runtime re-spawns it.
    pub fn kill(&self, pid: u64) -> bool {
        let reg = self.registry.lock();
        match reg.procs.get(&pid) {
            Some(state) => {
                state.kill();
                self.space.emit(Event::Kill { pid });
                self.space.backend().kick();
                true
            }
            None => false,
        }
    }

    /// Stop re-spawning killed processes (used at orderly teardown).
    pub fn stop_respawns(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Wait for every spawned worker to finish (and stop any background
    /// checkpointer). Workers that loop forever must be poisoned first
    /// (the standard Linda idiom).
    pub fn join(&self) {
        self.ckpt_stop.store(true, Ordering::SeqCst);
        if let Some(sched) = self.space.schedule() {
            // Joining is not a runnable step: park off the baton until
            // every thread of this runtime has exited.
            sched.join(self.registry.lock().seats.clone());
        }
        loop {
            let handle = { self.registry.lock().handles.pop() };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => return,
            }
        }
    }

    /// A snapshot of every spawned process — the "Process Watch" window
    /// of Fig. 7.6 as data: `(pid, name, status)`.
    pub fn monitor(&self) -> Vec<(u64, String, ProcessStatus)> {
        let reg = self.registry.lock();
        let mut out: Vec<(u64, String, ProcessStatus)> = reg
            .procs
            .iter()
            .map(|(&pid, st)| {
                (
                    pid,
                    reg.names
                        .get(&pid)
                        .cloned()
                        .unwrap_or_else(|| "master".into()),
                    st.status(),
                )
            })
            .collect();
        out.sort_by_key(|(pid, _, _)| *pid);
        out
    }

    /// Render the monitor snapshot as the text form of Fig. 7.6.
    pub fn monitor_text(&self) -> String {
        let mut out = String::from("PID   NAME              STATUS\n");
        for (pid, name, status) in self.monitor() {
            out.push_str(&format!("{pid:<5} {name:<17} {status}\n"));
        }
        out
    }

    /// Start checkpointing the visible tuple space to `path` every
    /// `interval` — the checkpoint-protected tuple space of §2.4.6. The
    /// checkpointer stops when [`Runtime::join`] runs (it observes the
    /// shutdown flag). Returns the injector-style thread's pid slot is
    /// not consumed; recovery is [`crate::TupleSpace::restore_file`].
    pub fn checkpoint_every(&self, path: std::path::PathBuf, interval: Duration) {
        let space = self.space();
        let stop = Arc::clone(&self.ckpt_stop);
        let handle = std::thread::Builder::new()
            .name("plinda-checkpointer".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let _ = space.checkpoint_file(&path);
                    // Short sleep slices so the stop flag is observed
                    // quickly.
                    let mut waited = Duration::ZERO;
                    while waited < interval && !stop.load(Ordering::SeqCst) {
                        let step = Duration::from_millis(10).min(interval - waited);
                        std::thread::sleep(step);
                        waited += step;
                    }
                }
                let _ = space.checkpoint_file(&path);
            })
            .expect("failed to spawn checkpointer");
        self.registry.lock().handles.push(handle);
    }

    /// Run `plan` on a separate injector thread: each entry kills the given
    /// pid after its delay. Returns immediately; the injector is joined by
    /// [`Runtime::join`].
    pub fn inject(&self, plan: FaultPlan) {
        let mut events = plan.events;
        events.sort_by_key(|(d, _)| *d);
        let reg_states: Vec<(u64, Arc<ProcessState>)> = {
            let reg = self.registry.lock();
            reg.procs
                .iter()
                .map(|(pid, st)| (*pid, Arc::clone(st)))
                .collect()
        };
        let space = self.space();
        let handle = std::thread::Builder::new()
            .name("plinda-fault-injector".into())
            .spawn(move || {
                let start = std::time::Instant::now();
                for (delay, pid) in events {
                    let now = start.elapsed();
                    if delay > now {
                        std::thread::sleep(delay - now);
                    }
                    if let Some((_, st)) = reg_states.iter().find(|(p, _)| *p == pid) {
                        st.kill();
                        space.emit(Event::Kill { pid });
                        space.backend().kick();
                    }
                }
            })
            .expect("failed to spawn fault injector");
        self.registry.lock().handles.push(handle);
    }
}

/// A schedule of failure injections: `(delay from plan start, pid to kill)`.
#[derive(Default, Clone)]
pub struct FaultPlan {
    events: Vec<(Duration, u64)>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill `pid` after `delay`.
    pub fn kill_after(mut self, delay: Duration, pid: u64) -> Self {
        self.events.push((delay, pid));
        self
    }

    /// Number of scheduled kills.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{field, Template};
    use crate::tup;

    fn t_task() -> Template {
        Template::new(vec![field::val("task"), field::int()])
    }

    fn t_done() -> Template {
        Template::new(vec![field::val("done"), field::int(), field::int()])
    }

    /// Worker: squares task payloads; negative payload is the poison pill.
    fn square_worker(p: &mut Process) -> WorkerResult {
        loop {
            p.xstart()?;
            let t = p.in_(t_task())?;
            let v = t.int(1);
            if v < 0 {
                p.xcommit(None)?;
                return Ok(());
            }
            p.out(tup!["done", v, v * v]);
            p.xcommit(None)?;
        }
    }

    #[test]
    fn master_worker_bag_of_tasks() {
        let rt = Runtime::new();
        rt.spawn_n("sq", 4, square_worker);
        let space = rt.space();
        for i in 0..20i64 {
            space.out(tup!["task", i]);
        }
        let mut sum = 0;
        for _ in 0..20 {
            sum += space.in_blocking(t_done()).int(2);
        }
        assert_eq!(sum, (0..20i64).map(|i| i * i).sum::<i64>());
        for _ in 0..4 {
            space.out(tup!["task", -1i64]);
        }
        rt.join();
    }

    #[test]
    fn killed_worker_is_respawned_and_work_completes() {
        let rt = Runtime::new();
        let pids = rt.spawn_n("sq", 2, square_worker);
        let space = rt.space();
        for i in 0..50i64 {
            space.out(tup!["task", i]);
        }
        // Kill both workers while results are still streaming in; each must
        // be re-spawned and the full result set still produced exactly once
        // per task. The kills are observed before the poison pills because
        // the pills are only sent after all 50 results arrive, and a killed
        // worker's next tuple operation fails before it can take a pill.
        let mut seen = std::collections::HashSet::new();
        for i in 0..50 {
            if i == 5 {
                assert!(rt.kill(pids[0]));
            }
            if i == 15 {
                assert!(rt.kill(pids[1]));
            }
            let d = space.in_blocking(t_done());
            assert!(seen.insert(d.int(1)), "duplicate result for {}", d.int(1));
        }
        for _ in 0..2 {
            space.out(tup!["task", -1i64]);
        }
        rt.join();
        assert!(rt.respawns() >= 1, "at least one kill should have landed");
    }

    #[test]
    fn continuation_survives_kill() {
        // Worker counts to 5 across transactions, committing its counter
        // as a continuation; a kill in the middle must not reset it.
        let rt = Runtime::new();
        let space = rt.space();
        let pid = rt.spawn("counter", move |p| {
            let mut i = match p.xrecover() {
                Some(c) => c.int(0),
                None => 0,
            };
            while i < 5 {
                p.xstart()?;
                let t = p.in_(Template::new(vec![field::val("tick"), field::int()]))?;
                p.out(tup!["tock", t.int(1)]);
                i += 1;
                p.xcommit(Some(tup![i]))?;
            }
            Ok(())
        });
        for i in 0..5i64 {
            space.out(tup!["tick", i]);
        }
        rt.inject(FaultPlan::new().kill_after(Duration::from_millis(3), pid));
        let mut tocks = 0;
        let tock = Template::new(vec![field::val("tock"), field::int()]);
        while tocks < 5 {
            space.in_blocking(tock.clone());
            tocks += 1;
        }
        rt.join();
        // Exactly 5 tocks: the transaction protecting each tick/tock pair
        // guarantees no tick is lost and none is processed twice.
        assert_eq!(space.count(&tock), 0);
    }

    #[test]
    fn kill_unknown_pid_is_noop() {
        let rt = Runtime::new();
        assert!(!rt.kill(999));
    }
}

#[cfg(test)]
mod monitor_tests {
    use super::*;
    use crate::template::{field, Template};
    use crate::tup;
    use crate::ProcessStatus;

    #[test]
    fn monitor_reports_lifecycle() {
        let rt = Runtime::new();
        let pid = rt.spawn("watcher", |p| {
            p.xstart()?;
            let _ = p.in_(Template::new(vec![field::val("go")]))?;
            p.xcommit(None)?;
            Ok(())
        });
        // The worker blocks on "go".
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let snap = rt.monitor();
            let (_, name, status) = snap.iter().find(|(p, _, _)| *p == pid).unwrap().clone();
            assert_eq!(name, "watcher");
            if status == ProcessStatus::Blocked {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "worker never blocked; last status {status}"
            );
            std::thread::yield_now();
        }
        rt.space().out(tup!["go"]);
        rt.join();
        let snap = rt.monitor();
        assert_eq!(snap[0].2, ProcessStatus::Done);
        let text = rt.monitor_text();
        assert!(text.contains("watcher"));
        assert!(text.contains("DONE"));
    }

    #[test]
    fn checkpointer_writes_and_stops() {
        let dir = std::env::temp_dir().join(format!("plinda-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("space.ckpt");
        let rt = Runtime::new();
        rt.space().out(tup!["persist", 42]);
        rt.checkpoint_every(path.clone(), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(30));
        rt.join();
        // Recover into a fresh space.
        let fresh = TupleSpace::new();
        fresh.restore_file(&path).unwrap();
        assert_eq!(fresh.len(), 1);
        let got = fresh
            .inp(&crate::Template::new(vec![
                crate::field::val("persist"),
                crate::field::int(),
            ]))
            .unwrap();
        assert_eq!(got.int(1), 42);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
