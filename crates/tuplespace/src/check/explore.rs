//! Deterministic interleaving explorer — a loom-style mini model checker
//! sized to the farm protocols.
//!
//! Real threads give one interleaving per run, chosen by the OS. The
//! explorer instead runs a set of [`VirtualProgram`]s — coroutine-style
//! state machines that yield one Linda [`Action`] at a time — over a real
//! [`TupleSpace`] under a *virtual scheduler*: single-threaded, with every
//! scheduling decision drawn from a seeded RNG (or round-robin for the
//! reference run). Because the schedule is data, it can be enumerated,
//! varied, and replayed exactly.
//!
//! On top of schedule choice the explorer injects **kills at every commit
//! boundary**: a [`KillPoint`] names the *n*-th commit attempt of the
//! whole run, and the process attempting it is killed at precisely that
//! boundary — its transaction aborts, it is re-spawned as a fresh
//! incarnation (resuming from `xrecover`, like the real runtime), and the
//! run continues. Every run is recorded and fed through the offline
//! checkers, and its final space is compared against the failure-free
//! reference run — the §7.1.2 sequential-equivalence guarantee, asserted
//! per schedule.

use super::checkers::{check_trace, CheckReport};
use super::trace::{OpKind, Recorder, Trace, TraceEvent};
use crate::probe::Event;
use crate::process::{PlindaError, Process, ProcessState};
use crate::space::TupleSpace;
use crate::template::Template;
use crate::value::Tuple;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// One Linda operation yielded by a [`VirtualProgram`].
#[derive(Debug, Clone)]
pub enum Action {
    /// Open a transaction.
    Xstart,
    /// Commit the open transaction, optionally storing a continuation.
    Xcommit(Option<Tuple>),
    /// Produce a tuple (buffered if a transaction is open).
    Out(Tuple),
    /// Blocking withdrawal.
    In(Template),
    /// Blocking read.
    Rd(Template),
    /// Non-blocking withdrawal.
    Inp(Template),
    /// Non-blocking read.
    Rdp(Template),
    /// Terminate this process normally.
    Exit,
}

/// The driver's answer to the previous [`Action`], delivered with the
/// next [`VirtualProgram::next`] call.
#[derive(Debug, Clone)]
pub enum Reply {
    /// First call of an incarnation: the `xrecover` result (the previous
    /// incarnation's committed continuation, if any).
    Spawned(Option<Tuple>),
    /// `Xstart`/`Xcommit`/`Out` completed.
    Ack,
    /// `In`/`Rd` produced this tuple.
    Got(Tuple),
    /// `Inp`/`Rdp` result.
    Polled(Option<Tuple>),
}

/// A deterministic, single-stepping tuple-space program: the explorer's
/// unit of concurrency. Implementations are state machines — each
/// [`VirtualProgram::next`] call receives the [`Reply`] to the previous
/// action and returns the next one. A program must be deterministic given
/// its replies, so a schedule replays exactly.
pub trait VirtualProgram {
    /// Advance by one operation.
    fn next(&mut self, reply: Reply) -> Action;
}

/// A failure injection: kill the process attempting the `commit`-th
/// commit of the run (1-based, counted across all processes), exactly at
/// that commit boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KillPoint {
    /// Global commit-attempt ordinal at which the kill lands.
    pub commit: u64,
}

/// Explorer configuration. Build with [`ExploreConfig::new`], add one
/// factory per process with [`ExploreConfig::program`] (re-spawn after a
/// kill calls the factory again), then run [`explore`].
pub struct ExploreConfig {
    programs: Vec<Box<dyn Fn() -> Box<dyn VirtualProgram>>>,
    /// Templates for tuples allowed to remain at quiescence (results).
    pub allowed_leftovers: Vec<Template>,
    /// Number of random failure-free schedules to run.
    pub random_schedules: usize,
    /// Number of random schedules to run per kill point.
    pub seeds_per_kill: usize,
    /// Per-run step budget (guards against livelock in the programs).
    pub max_steps: usize,
    /// Base RNG seed; every run derives its own seed from it.
    pub base_seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl ExploreConfig {
    /// An empty configuration with default run counts.
    pub fn new() -> Self {
        ExploreConfig {
            programs: Vec::new(),
            allowed_leftovers: Vec::new(),
            random_schedules: 40,
            seeds_per_kill: 8,
            max_steps: 100_000,
            base_seed: 0x5EED,
        }
    }

    /// Add one process: `factory` builds a fresh incarnation (called again
    /// on re-spawn after a kill). Process pids are assigned in insertion
    /// order starting at 1.
    pub fn program<P, F>(mut self, factory: F) -> Self
    where
        P: VirtualProgram + 'static,
        F: Fn() -> P + 'static,
    {
        self.programs.push(Box::new(move || Box::new(factory())));
        self
    }

    /// Allow tuples matching `tmpl` to remain at quiescence.
    pub fn allow_leftover(mut self, tmpl: Template) -> Self {
        self.allowed_leftovers.push(tmpl);
        self
    }
}

/// One failed run: which schedule, and what went wrong.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Compact schedule identifier: kill ordinal (0 = none), seed, and
    /// the first scheduling decisions.
    pub schedule: String,
    /// What failed — checker report, deadlock, or divergence detail.
    pub detail: String,
}

/// Result of [`explore`].
#[derive(Debug, Default)]
pub struct ExploreReport {
    /// Total runs executed (reference + random + kill runs).
    pub runs: usize,
    /// Distinct schedules observed (decision sequence + kill placement).
    pub distinct_schedules: usize,
    /// Kill points derived from the reference run (one per commit).
    pub kill_points: Vec<KillPoint>,
    /// How many runs each kill point actually fired in.
    pub kills_fired: Vec<(KillPoint, usize)>,
    /// Failure-free reference final space (sorted).
    pub reference_final: Vec<Tuple>,
    /// Every run that violated a checker, deadlocked, or diverged from
    /// the reference final space.
    pub failures: Vec<RunFailure>,
}

impl ExploreReport {
    /// Did every schedule pass every checker and match the reference?
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

enum Scheduler {
    RoundRobin { next: usize },
    Seeded(StdRng),
}

impl Scheduler {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        match self {
            Scheduler::RoundRobin { next } => {
                // First enabled process at or after the cursor.
                let chosen = *enabled.iter().find(|&&i| i >= *next).unwrap_or(&enabled[0]);
                *next = chosen + 1;
                chosen
            }
            Scheduler::Seeded(rng) => enabled[(rng.next_u64() % enabled.len() as u64) as usize],
        }
    }
}

/// Per-process driver state.
enum PState {
    /// Not yet started (or just re-spawned): next step delivers
    /// `Reply::Spawned(xrecover())`.
    Fresh,
    /// Ready to advance: next step delivers this reply.
    Ready(Reply),
    /// Parked on a blocking `in`/`rd`; runnable only when a matching
    /// tuple is visible.
    Blocked { tmpl: Template, withdraw: bool },
    /// Completed (`Action::Exit`).
    Exited,
}

struct Driver<'a> {
    cfg: &'a ExploreConfig,
    space: Arc<TupleSpace>,
    programs: Vec<Box<dyn VirtualProgram>>,
    procs: Vec<Process>,
    states: Vec<Arc<ProcessState>>,
    pstates: Vec<PState>,
    /// Global commit-attempt counter (kill placement ordinal).
    commit_attempts: u64,
    kill: Option<KillPoint>,
    kill_fired: bool,
    error: Option<String>,
}

struct RunOutcome {
    trace: Trace,
    /// Sorted final visible space.
    final_space: Vec<Tuple>,
    /// Total successful commits across all processes.
    commits: u64,
    /// Scheduling decisions taken, in order.
    decisions: Vec<u64>,
    /// Whether the kill point fired during this run.
    kill_fired: bool,
    /// Execution-level error (unexpected PlindaError, livelock, deadlock).
    error: Option<String>,
}

impl<'a> Driver<'a> {
    fn new(cfg: &'a ExploreConfig, kill: Option<KillPoint>, rec: &Recorder) -> Self {
        let space = Arc::new(TupleSpace::new());
        space.set_recorder(Some(rec.clone()));
        let n = cfg.programs.len();
        let mut programs = Vec::with_capacity(n);
        let mut procs = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        let mut pstates = Vec::with_capacity(n);
        for (i, factory) in cfg.programs.iter().enumerate() {
            let state = Arc::new(ProcessState::new());
            procs.push(Process::new(
                (i + 1) as u64,
                Arc::clone(&space),
                Arc::clone(&state),
            ));
            states.push(state);
            programs.push(factory());
            pstates.push(PState::Fresh);
        }
        Driver {
            cfg,
            space,
            programs,
            procs,
            states,
            pstates,
            commit_attempts: 0,
            kill,
            kill_fired: false,
            error: None,
        }
    }

    fn enabled(&self) -> Vec<usize> {
        self.pstates
            .iter()
            .enumerate()
            .filter(|(i, s)| match s {
                PState::Fresh | PState::Ready(_) => true,
                PState::Blocked { tmpl, .. } => {
                    self.procs[*i].outbox_matches(tmpl) || self.space.has_match(tmpl)
                }
                PState::Exited => false,
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn all_exited(&self) -> bool {
        self.pstates.iter().all(|s| matches!(s, PState::Exited))
    }

    /// Execute one step of process `i`.
    fn step(&mut self, i: usize) {
        let pid = (i + 1) as u64;
        match std::mem::replace(&mut self.pstates[i], PState::Exited) {
            PState::Fresh => {
                let cont = self.procs[i].xrecover();
                let action = self.programs[i].next(Reply::Spawned(cont));
                self.pstates[i] = self.dispatch(i, action);
            }
            PState::Ready(reply) => {
                let action = self.programs[i].next(reply);
                self.pstates[i] = self.dispatch(i, action);
            }
            PState::Blocked { tmpl, withdraw } => {
                // A matching tuple is visible: complete the parked op.
                self.space
                    .emit(Event::Virtual(TraceEvent::Wake { actor: pid }));
                let got = if withdraw {
                    self.procs[i].in_(tmpl)
                } else {
                    self.procs[i].rd(tmpl)
                };
                match got {
                    Ok(t) => self.pstates[i] = PState::Ready(Reply::Got(t)),
                    Err(e) => {
                        self.error
                            .get_or_insert_with(|| format!("pid {pid}: blocked op failed: {e}"));
                    }
                }
            }
            PState::Exited => unreachable!("exited process scheduled"),
        }
    }

    /// Execute `action` for process `i`, returning its next driver state.
    fn dispatch(&mut self, i: usize, action: Action) -> PState {
        let pid = (i + 1) as u64;
        let protocol_err = |e: PlindaError, what: &str, slot: &mut Option<String>| {
            slot.get_or_insert_with(|| format!("pid {pid}: {what} failed: {e}"));
            PState::Exited
        };
        match action {
            Action::Xstart => match self.procs[i].xstart() {
                Ok(()) => PState::Ready(Reply::Ack),
                Err(e) => protocol_err(e, "xstart", &mut self.error),
            },
            Action::Xcommit(cont) => {
                self.commit_attempts += 1;
                if let Some(kp) = self.kill {
                    if !self.kill_fired && self.commit_attempts == kp.commit {
                        // The kill lands exactly at this commit boundary:
                        // the attempt aborts and the process is re-spawned
                        // as a fresh incarnation, like the real runtime.
                        self.kill_fired = true;
                        self.states[i].kill();
                        self.space.emit(Event::Virtual(TraceEvent::Kill { pid }));
                        match self.procs[i].xcommit(cont) {
                            Err(PlindaError::Killed) => {}
                            other => {
                                self.error.get_or_insert_with(|| {
                                    format!("pid {pid}: killed commit returned {other:?}")
                                });
                                return PState::Exited;
                            }
                        }
                        self.states[i].revive();
                        self.procs[i] =
                            Process::new(pid, Arc::clone(&self.space), Arc::clone(&self.states[i]));
                        self.programs[i] = (self.cfg.programs[i])();
                        self.space.emit(Event::Virtual(TraceEvent::Respawn { pid }));
                        return PState::Fresh;
                    }
                }
                match self.procs[i].xcommit(cont) {
                    Ok(()) => PState::Ready(Reply::Ack),
                    Err(e) => protocol_err(e, "xcommit", &mut self.error),
                }
            }
            Action::Out(t) => {
                self.procs[i].out(t);
                PState::Ready(Reply::Ack)
            }
            Action::Inp(tmpl) => match self.procs[i].inp(&tmpl) {
                Ok(got) => PState::Ready(Reply::Polled(got)),
                Err(e) => protocol_err(e, "inp", &mut self.error),
            },
            Action::Rdp(tmpl) => match self.procs[i].rdp(&tmpl) {
                Ok(got) => PState::Ready(Reply::Polled(got)),
                Err(e) => protocol_err(e, "rdp", &mut self.error),
            },
            Action::In(tmpl) => self.blocking_op(i, tmpl, true),
            Action::Rd(tmpl) => self.blocking_op(i, tmpl, false),
            Action::Exit => {
                let _ = self.space.backend().cont_clear(pid);
                self.space.emit(Event::Virtual(TraceEvent::Done { pid }));
                PState::Exited
            }
        }
    }

    fn blocking_op(&mut self, i: usize, tmpl: Template, withdraw: bool) -> PState {
        let pid = (i + 1) as u64;
        if self.procs[i].outbox_matches(&tmpl) || self.space.has_match(&tmpl) {
            let got = if withdraw {
                self.procs[i].in_(tmpl)
            } else {
                self.procs[i].rd(tmpl)
            };
            match got {
                Ok(t) => PState::Ready(Reply::Got(t)),
                Err(e) => {
                    self.error
                        .get_or_insert_with(|| format!("pid {pid}: blocking op failed: {e}"));
                    PState::Exited
                }
            }
        } else {
            self.space.emit(Event::Virtual(TraceEvent::Block {
                actor: pid,
                op: if withdraw { OpKind::In } else { OpKind::Rd },
                template: tmpl.clone(),
            }));
            PState::Blocked { tmpl, withdraw }
        }
    }
}

/// Run the configured programs once under `sched`, with an optional kill.
fn run_once(cfg: &ExploreConfig, mut sched: Scheduler, kill: Option<KillPoint>) -> RunOutcome {
    let rec = Recorder::new();
    let mut driver = Driver::new(cfg, kill, &rec);
    let mut decisions = Vec::new();
    let mut commits = 0u64;
    loop {
        if driver.error.is_some() {
            break;
        }
        if driver.all_exited() {
            break;
        }
        let enabled = driver.enabled();
        if enabled.is_empty() {
            let blocked: Vec<String> = driver
                .pstates
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    PState::Blocked { tmpl, .. } => Some(format!("pid {} on {tmpl:?}", i + 1)),
                    _ => None,
                })
                .collect();
            driver.error = Some(format!(
                "deadlock: no runnable process ({})",
                blocked.join("; ")
            ));
            break;
        }
        if decisions.len() >= cfg.max_steps {
            driver.error = Some(format!("livelock: exceeded {} steps", cfg.max_steps));
            break;
        }
        let before = driver.commit_attempts;
        let chosen = sched.pick(&enabled);
        decisions.push(chosen as u64);
        driver.step(chosen);
        if driver.commit_attempts > before && driver.error.is_none() {
            // Count successful commits only (a killed attempt re-runs).
            if !matches!(driver.pstates[chosen], PState::Fresh) {
                commits += 1;
            }
        }
    }
    let trace = rec.take();
    RunOutcome {
        final_space: trace.final_space(),
        trace,
        commits,
        decisions,
        kill_fired: driver.kill_fired,
        error: driver.error,
    }
}

fn schedule_key(kill: Option<KillPoint>, decisions: &[u64]) -> Vec<u64> {
    let mut key = vec![kill.map_or(0, |k| k.commit)];
    key.extend_from_slice(decisions);
    key
}

fn schedule_label(kill: Option<KillPoint>, seed: Option<u64>, decisions: &[u64]) -> String {
    let kill_s = match kill {
        Some(k) => format!("kill@commit{}", k.commit),
        None => "no-kill".into(),
    };
    let seed_s = match seed {
        Some(s) => format!("seed={s:#x}"),
        None => "round-robin".into(),
    };
    format!("{kill_s} {seed_s} steps={}", decisions.len())
}

/// Check one run's trace and final space; push failures into `report`.
fn audit_run(
    report: &mut ExploreReport,
    cfg: &ExploreConfig,
    outcome: &RunOutcome,
    kill: Option<KillPoint>,
    seed: Option<u64>,
    reference: Option<&[Tuple]>,
) -> CheckReport {
    let label = schedule_label(kill, seed, &outcome.decisions);
    if let Some(err) = &outcome.error {
        report.failures.push(RunFailure {
            schedule: label.clone(),
            detail: err.clone(),
        });
    }
    let checks = check_trace(&outcome.trace, &cfg.allowed_leftovers);
    if !checks.is_clean() {
        report.failures.push(RunFailure {
            schedule: label.clone(),
            detail: checks.to_string(),
        });
    }
    if let Some(reference) = reference {
        if outcome.error.is_none() && outcome.final_space != reference {
            report.failures.push(RunFailure {
                schedule: label,
                detail: format!(
                    "final space diverged from reference ({} vs {} tuple(s)) — \
                     §7.1.2 sequential equivalence violated",
                    outcome.final_space.len(),
                    reference.len()
                ),
            });
        }
    }
    checks
}

/// Explore schedules of the configured programs.
///
/// 1. A deterministic round-robin **reference run** (failure-free)
///    establishes the expected final space and the number of commit
///    boundaries.
/// 2. `random_schedules` seeded failure-free runs.
/// 3. For every commit boundary `1..=commits`, `seeds_per_kill` seeded
///    runs with a kill placed exactly at that boundary.
///
/// Every run is trace-checked (atomicity, leaks, deadlock) and its final
/// space compared against the reference. The report counts distinct
/// schedules (decision sequence + kill placement) and which kill points
/// actually fired.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut seen: HashSet<Vec<u64>> = HashSet::new();

    // Reference: failure-free, round-robin.
    let reference = run_once(cfg, Scheduler::RoundRobin { next: 0 }, None);
    report.runs += 1;
    seen.insert(schedule_key(None, &reference.decisions));
    audit_run(&mut report, cfg, &reference, None, None, None);
    report.reference_final = reference.final_space.clone();
    if reference.error.is_some() {
        // Without a clean reference there is nothing to diff against.
        report.distinct_schedules = seen.len();
        return report;
    }

    // Failure-free random schedules.
    for s in 0..cfg.random_schedules {
        let seed = cfg.base_seed.wrapping_add(s as u64);
        let outcome = run_once(cfg, Scheduler::Seeded(StdRng::seed_from_u64(seed)), None);
        report.runs += 1;
        seen.insert(schedule_key(None, &outcome.decisions));
        audit_run(
            &mut report,
            cfg,
            &outcome,
            None,
            Some(seed),
            Some(&reference.final_space),
        );
    }

    // A kill at every commit boundary of the computation.
    report.kill_points = (1..=reference.commits)
        .map(|c| KillPoint { commit: c })
        .collect();
    for kp in report.kill_points.clone() {
        let mut fired = 0usize;
        for s in 0..cfg.seeds_per_kill {
            let seed = cfg
                .base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(kp.commit * 10_007 + s as u64);
            let outcome = run_once(
                cfg,
                Scheduler::Seeded(StdRng::seed_from_u64(seed)),
                Some(kp),
            );
            report.runs += 1;
            if outcome.kill_fired {
                fired += 1;
            }
            seen.insert(schedule_key(
                outcome.kill_fired.then_some(kp),
                &outcome.decisions,
            ));
            audit_run(
                &mut report,
                cfg,
                &outcome,
                Some(kp),
                Some(seed),
                Some(&reference.final_space),
            );
        }
        report.kills_fired.push((kp, fired));
    }

    report.distinct_schedules = seen.len();
    report
}
