//! Deterministic interleaving explorer — loom's idea, sized to the Linda
//! operation, run against the real program.
//!
//! Real threads give one interleaving per run, chosen by the OS. The
//! explorer instead runs *your program* — the same code that runs in
//! production — over a *scheduled space*: the in-process space behind a
//! baton. Every thread that touches the space holds a seat in the
//! schedule (the program's root thread takes one from [`explore`], every
//! worker from [`crate::Runtime::spawn`] in the spawning thread, so
//! schedule choice never races a thread's start-up), and each of its
//! space operations first waits for the baton. Once every seated thread is
//! parked before its next operation, the scheduler hands the baton to one
//! runnable thread: round-robin for the reference run, by seeded RNG
//! otherwise. A blocking `in`/`rd` is runnable only once a matching tuple
//! exists; a thread in [`crate::Runtime::join`] only once the threads it
//! joins have exited. Because the schedule is data, it can be varied and
//! replayed, and a run in which no thread is runnable is a deadlock.
//!
//! On top of schedule choice the explorer injects **kills at every commit
//! boundary**: a [`KillPoint`] names the *n*-th commit attempt of the run,
//! and the process attempting it is killed at precisely that boundary
//! through the runtime's real path — [`crate::Process::xcommit`] sees the
//! kill and aborts the transaction, and the runtime re-spawns the process,
//! which resumes from `xrecover`. Every run is recorded and fed through the
//! offline checkers, and its result and final space are compared against
//! the failure-free reference run — the §7.1.2 sequential-equivalence
//! guarantee, asserted per schedule.
//!
//! Runs are sequential: all of a run's threads have exited before the next
//! run starts. Only the explorer's own kills are modelled — a thread parked
//! on a scheduled wait does not observe [`crate::Runtime::kill`] — and a
//! thread without a seat cannot use a scheduled space.

use super::checkers::check_trace;
use super::trace::{Recorder, Trace};
use crate::backend::SpaceBackend;
use crate::process::PlindaError;
use crate::runtime::panic_message;
use crate::space::{LocalBackend, TupleSpace};
use crate::template::Template;
use crate::value::Tuple;
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A failure injection: kill the process attempting the `commit`-th
/// commit of the run (1-based, counted across all processes), exactly at
/// that commit boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KillPoint {
    /// Global commit-attempt ordinal at which the kill lands.
    pub commit: u64,
}

/// Explorer configuration: run counts and the tuples a run may leave.
pub struct ExploreConfig {
    /// Templates for tuples allowed to remain at quiescence (results).
    pub allowed_leftovers: Vec<Template>,
    /// Number of random failure-free schedules to run.
    pub random_schedules: usize,
    /// Number of random schedules to run per kill point.
    pub seeds_per_kill: usize,
    /// Per-run budget of scheduling decisions (guards against livelock).
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
    /// A configuration with default run counts and no allowed leftovers.
    pub fn new() -> Self {
        ExploreConfig {
            allowed_leftovers: Vec::new(),
            random_schedules: 40,
            seeds_per_kill: 8,
            max_steps: 100_000,
            base_seed: 0x5EED,
        }
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
    /// Compact schedule identifier: kill placement, seed, and step count.
    pub schedule: String,
    /// What failed — checker report, deadlock, panic, or divergence.
    pub detail: String,
}

/// Result of [`explore`] over a program returning `R`.
#[derive(Debug)]
pub struct ExploreReport<R> {
    /// Total runs executed (reference + random + kill runs).
    pub runs: usize,
    /// Distinct schedules observed (decision sequence + kill placement).
    pub distinct_schedules: usize,
    /// Kill points derived from the reference run (one per commit).
    pub kill_points: Vec<KillPoint>,
    /// How many runs each kill point actually fired in.
    pub kills_fired: Vec<(KillPoint, usize)>,
    /// The failure-free reference run's result (`None` if it failed).
    pub reference: Option<R>,
    /// The reference run's final visible space (sorted).
    pub reference_final: Vec<Tuple>,
    /// Every run that violated a checker, deadlocked, panicked, or
    /// diverged from the reference result or final space.
    pub failures: Vec<RunFailure>,
}

impl<R> ExploreReport<R> {
    /// Did every schedule pass every checker and match the reference?
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

enum Pick {
    RoundRobin { next: usize },
    Seeded(StdRng),
}

impl Pick {
    fn pick(&mut self, runnable: &[usize]) -> usize {
        match self {
            Pick::RoundRobin { next } => {
                // First runnable seat at or after the cursor.
                let chosen = *runnable
                    .iter()
                    .find(|&&i| i >= *next)
                    .unwrap_or(&runnable[0]);
                *next = chosen + 1;
                chosen
            }
            Pick::Seeded(rng) => runnable[(rng.next_u64() % runnable.len() as u64) as usize],
        }
    }
}

/// A seated thread as the scheduler sees it.
enum Seat {
    /// Running: starting up, or holding the baton until its next op.
    Busy,
    /// Parked before an operation that can run now.
    Ready,
    /// Parked before a blocking `in`/`rd`: runnable once a match exists.
    Blocked(Template),
    /// Parked in `Runtime::join`: runnable once these seats have exited.
    Joining(Vec<usize>),
    Exited,
}

struct Baton {
    seats: Vec<Seat>,
    pick: Pick,
    /// The seat chosen at each decision, in order.
    decisions: Vec<u64>,
    max_steps: usize,
    /// Commit attempts so far, and the one the run's kill lands on.
    commits: u64,
    kill: Option<u64>,
    kill_fired: bool,
    /// Why the run was abandoned (deadlock or step budget); once set,
    /// every scheduled operation fails so the threads unwind.
    failure: Option<String>,
}

thread_local! {
    /// This thread's seat in the schedule it runs under, if any.
    static SEAT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The scheduled backend: the in-process space with a baton in front of
/// every operation.
pub(crate) struct ScheduledBackend {
    local: LocalBackend,
    baton: Mutex<Baton>,
    turn: Condvar,
}

/// A thread's seat, taken in the spawning thread by
/// [`ScheduledBackend::register`]. The thread leaves the schedule when the
/// seat drops.
pub(crate) struct SeatGuard {
    sched: Arc<ScheduledBackend>,
    id: usize,
}

impl SeatGuard {
    /// Seat the calling thread: its space operations now wait for the
    /// baton.
    pub(crate) fn entered(self) -> Self {
        SEAT.with(|s| s.set(Some(self.id)));
        self
    }

    pub(crate) fn id(&self) -> usize {
        self.id
    }
}

impl Drop for SeatGuard {
    fn drop(&mut self) {
        SEAT.with(|s| {
            if s.get() == Some(self.id) {
                s.set(None);
            }
        });
        let mut b = self.sched.baton.lock();
        b.seats[self.id] = Seat::Exited;
        self.sched.decide(&mut b);
    }
}

impl ScheduledBackend {
    fn new(local: LocalBackend, pick: Pick, kill: Option<KillPoint>, max_steps: usize) -> Self {
        ScheduledBackend {
            local,
            baton: Mutex::new(Baton {
                seats: Vec::new(),
                pick,
                decisions: Vec::new(),
                max_steps,
                commits: 0,
                kill: kill.map(|k| k.commit),
                kill_fired: false,
                failure: None,
            }),
            turn: Condvar::new(),
        }
    }

    /// Take a seat for a thread about to start. The caller holds the baton
    /// (or is starting up itself), so no decision is made until the new
    /// thread parks before its first operation.
    pub(crate) fn register(self: &Arc<Self>) -> SeatGuard {
        let mut b = self.baton.lock();
        b.seats.push(Seat::Busy);
        SeatGuard {
            sched: Arc::clone(self),
            id: b.seats.len() - 1,
        }
    }

    /// Park the calling thread as `want`; return once it holds the baton.
    fn acquire(&self, want: Seat) -> Result<(), PlindaError> {
        let me = SEAT
            .with(Cell::get)
            .ok_or_else(|| PlindaError::Transport("thread has no seat in the schedule".into()))?;
        let mut b = self.baton.lock();
        b.seats[me] = want;
        self.decide(&mut b);
        loop {
            if let Some(why) = &b.failure {
                return Err(PlindaError::Transport(format!("schedule abandoned: {why}")));
            }
            if matches!(b.seats[me], Seat::Busy) {
                return Ok(());
            }
            self.turn.wait(&mut b);
        }
    }

    /// Once every live seat is parked, hand the baton to one runnable
    /// seat — or, if none can run, abandon the run as deadlocked.
    fn decide(&self, b: &mut Baton) {
        if b.failure.is_none() && !b.seats.iter().any(|s| matches!(s, Seat::Busy)) {
            let runnable: Vec<usize> = (0..b.seats.len())
                .filter(|&i| match &b.seats[i] {
                    Seat::Ready => true,
                    Seat::Blocked(tmpl) => self.local.has_match(tmpl),
                    Seat::Joining(ids) => ids.iter().all(|&j| matches!(b.seats[j], Seat::Exited)),
                    Seat::Busy | Seat::Exited => false,
                })
                .collect();
            if runnable.is_empty() {
                let parked: Vec<String> = (0..b.seats.len())
                    .filter_map(|i| match &b.seats[i] {
                        Seat::Blocked(tmpl) => Some(format!("seat {i} on {tmpl:?}")),
                        Seat::Joining(ids) => Some(format!("seat {i} joining {ids:?}")),
                        _ => None,
                    })
                    .collect();
                if !parked.is_empty() {
                    let parked = parked.join("; ");
                    b.failure = Some(format!("deadlock: no runnable thread ({parked})"));
                }
            } else if b.decisions.len() >= b.max_steps {
                b.failure = Some(format!("livelock: exceeded {} steps", b.max_steps));
            } else {
                let chosen = b.pick.pick(&runnable);
                b.decisions.push(chosen as u64);
                b.seats[chosen] = Seat::Busy;
            }
        }
        self.turn.notify_all();
    }

    /// One scheduled step before a non-blocking operation.
    fn step(&self) -> Result<(), PlindaError> {
        self.acquire(Seat::Ready)
    }

    /// One scheduled step before a blocking operation: parked until a
    /// match exists, so the wrapped wait returns at once.
    fn step_when(&self, tmpl: &Template) -> Result<(), PlindaError> {
        self.acquire(Seat::Blocked(tmpl.clone()))
    }

    /// Park the calling thread until every seat in `seats` has exited;
    /// joining is not a runnable step. Returns holding the baton.
    pub(crate) fn join(&self, seats: Vec<usize>) {
        // A failed wait means the run was abandoned; the joined threads
        // unwind on their next operation, so the OS join still returns.
        let _ = self.acquire(Seat::Joining(seats));
    }

    /// The scheduled step at a commit boundary: true when the run's kill
    /// lands on this commit.
    pub(crate) fn commit_point(&self) -> bool {
        if self.step().is_err() {
            return false;
        }
        let mut b = self.baton.lock();
        b.commits += 1;
        let fire = b.kill == Some(b.commits);
        b.kill_fired |= fire;
        fire
    }

    /// Wait until every seat has exited, then return the run's record.
    fn settle(&self) -> MutexGuard<'_, Baton> {
        let mut b = self.baton.lock();
        while !b.seats.iter().all(|s| matches!(s, Seat::Exited)) {
            self.turn.wait(&mut b);
        }
        b
    }
}

impl SpaceBackend for ScheduledBackend {
    /// The storage is the in-process space, so programs pick their local
    /// defaults (e.g. the farm's prefetch depth) exactly as they would
    /// over [`TupleSpace::new`].
    fn kind(&self) -> &'static str {
        self.local.kind()
    }

    fn out(&self, ts: Vec<Tuple>, deferred: bool) -> Result<(), PlindaError> {
        self.step()?;
        self.local.out(ts, deferred)
    }

    fn poll(&self, tmpl: &Template, take: bool, max: usize) -> Result<Vec<Tuple>, PlindaError> {
        self.step()?;
        self.local.poll(tmpl, take, max)
    }

    fn wait(
        &self,
        tmpl: &Template,
        take: bool,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Result<Option<Vec<Tuple>>, PlindaError> {
        self.step_when(tmpl)?;
        self.local.wait(tmpl, take, max, cancel)
    }

    fn kick(&self) {
        self.local.kick()
    }

    fn len(&self) -> Result<usize, PlindaError> {
        self.step()?;
        self.local.len()
    }

    fn count(&self, tmpl: &Template) -> Result<usize, PlindaError> {
        self.step()?;
        self.local.count(tmpl)
    }

    fn snapshot(&self) -> Result<Vec<Tuple>, PlindaError> {
        self.step()?;
        self.local.snapshot()
    }

    fn restore(&self, tuples: Vec<Tuple>) -> Result<(), PlindaError> {
        self.step()?;
        self.local.restore(tuples)
    }

    fn txn_begin(&self, pid: u64) -> Result<(), PlindaError> {
        self.step()?;
        self.local.txn_begin(pid)
    }

    fn txn_commit(
        &self,
        pid: u64,
        publish: Vec<Tuple>,
        cont: Option<Tuple>,
    ) -> Result<(), PlindaError> {
        self.step()?;
        self.local.txn_commit(pid, publish, cont)
    }

    fn txn_abort(&self, pid: u64, restore: Vec<Tuple>) -> Result<(), PlindaError> {
        self.step()?;
        self.local.txn_abort(pid, restore)
    }

    fn cont_get(&self, pid: u64) -> Result<Option<Tuple>, PlindaError> {
        self.step()?;
        self.local.cont_get(pid)
    }

    fn cont_clear(&self, pid: u64) -> Result<(), PlindaError> {
        self.step()?;
        self.local.cont_clear(pid)
    }
}

struct RunOutcome<R> {
    /// The program's result, or why the run failed (deadlock, panic).
    result: Result<R, String>,
    trace: Trace,
    /// Commit attempts across all processes.
    commits: u64,
    decisions: Vec<u64>,
    kill_fired: bool,
}

/// Run `program` once on a fresh scheduled space, as the root thread.
fn run_once<R>(
    cfg: &ExploreConfig,
    pick: Pick,
    kill: Option<KillPoint>,
    program: &impl Fn(Arc<TupleSpace>) -> R,
) -> RunOutcome<R> {
    let space = Arc::new(TupleSpace::scheduled(|local| {
        ScheduledBackend::new(local, pick, kill, cfg.max_steps)
    }));
    let sched = Arc::clone(space.schedule().expect("a scheduled space"));
    let rec = Recorder::new();
    space.set_recorder(Some(rec.clone()));
    let root = sched.register().entered();
    let result = catch_unwind(AssertUnwindSafe(|| program(Arc::clone(&space))));
    drop(root);
    let mut b = sched.settle();
    let result = match (b.failure.take(), result) {
        (Some(why), _) => Err(why),
        (None, Ok(r)) => Ok(r),
        (None, Err(panic)) => Err(format!("program panicked: {}", panic_message(&*panic))),
    };
    RunOutcome {
        result,
        trace: rec.take(),
        commits: b.commits,
        decisions: std::mem::take(&mut b.decisions),
        kill_fired: b.kill_fired,
    }
}

/// Check one run's trace, result and final space; the first clean run
/// becomes the reference.
fn audit<R: PartialEq + Debug>(
    report: &mut ExploreReport<R>,
    seen: &mut HashSet<Vec<u64>>,
    cfg: &ExploreConfig,
    run: RunOutcome<R>,
    kill: Option<KillPoint>,
    seed: Option<u64>,
) {
    report.runs += 1;
    let mut key = vec![kill.filter(|_| run.kill_fired).map_or(0, |k| k.commit)];
    key.extend(&run.decisions);
    seen.insert(key);
    let schedule = format!(
        "{} {} steps={}",
        kill.map_or("no-kill".into(), |k| format!("kill@commit{}", k.commit)),
        seed.map_or("round-robin".into(), |s| format!("seed={s:#x}")),
        run.decisions.len()
    );
    let mut details = Vec::new();
    let checks = check_trace(&run.trace, &cfg.allowed_leftovers);
    if !checks.is_clean() {
        details.push(checks.to_string());
    }
    let final_space = run.trace.final_space();
    match (run.result, &report.reference) {
        (Err(why), _) => details.push(why),
        (Ok(r), None) => {
            report.reference = Some(r);
            report.reference_final = final_space;
        }
        (Ok(r), Some(reference)) if r != *reference => details.push(format!(
            "result diverged from the reference — §7.1.2 sequential equivalence \
             violated: {r:?} vs {reference:?}"
        )),
        (Ok(_), Some(_)) if final_space != report.reference_final => details.push(format!(
            "final space diverged from the reference ({} vs {} tuple(s))",
            final_space.len(),
            report.reference_final.len()
        )),
        (Ok(_), Some(_)) => {}
    }
    for detail in details {
        report.failures.push(RunFailure {
            schedule: schedule.clone(),
            detail,
        });
    }
}

/// Explore schedules of `program`, which receives a fresh scheduled space
/// per run and returns the run's result.
///
/// 1. A deterministic round-robin **reference run** (failure-free)
///    establishes the expected result and final space, and the number of
///    commit boundaries.
/// 2. `random_schedules` seeded failure-free runs.
/// 3. For every commit boundary `1..=commits`, `seeds_per_kill` seeded
///    runs with a kill placed exactly at that boundary.
///
/// Every run is trace-checked (atomicity, leaks, deadlock) and its result
/// and final space compared against the reference. The report counts
/// distinct schedules (decision sequence + kill placement) and which kill
/// points actually fired.
///
/// ```
/// use plinda::check::{explore, ExploreConfig};
/// use plinda::{field, tup, Runtime, Template};
///
/// let report = explore(&ExploreConfig::new(), |space| {
///     let rt = Runtime::with_space(space.clone());
///     rt.spawn("worker", |p| {
///         p.xstart()?;
///         let t = p.in_(Template::new(vec![field::val("job"), field::int()]))?;
///         p.out(tup!["done", t.int(1)]);
///         p.xcommit(None)?;
///         Ok(())
///     });
///     space.out(tup!["job", 7]);
///     let done = space.in_blocking(Template::new(vec![field::val("done"), field::int()]));
///     rt.join();
///     done.int(1)
/// });
/// assert!(report.is_clean(), "{:#?}", report.failures.first());
/// assert_eq!(report.reference, Some(7));
/// assert_eq!(report.kill_points.len(), 1); // the worker's one commit
/// ```
pub fn explore<R, F>(cfg: &ExploreConfig, program: F) -> ExploreReport<R>
where
    R: PartialEq + Debug,
    F: Fn(Arc<TupleSpace>) -> R,
{
    let mut report = ExploreReport {
        runs: 0,
        distinct_schedules: 0,
        kill_points: Vec::new(),
        kills_fired: Vec::new(),
        reference: None,
        reference_final: Vec::new(),
        failures: Vec::new(),
    };
    let mut seen = HashSet::new();

    // Reference: failure-free, round-robin. Without a clean reference
    // there is nothing to compare against.
    let reference = run_once(cfg, Pick::RoundRobin { next: 0 }, None, &program);
    let commits = reference.commits;
    audit(&mut report, &mut seen, cfg, reference, None, None);
    if report.reference.is_some() {
        for s in 0..cfg.random_schedules {
            let seed = cfg.base_seed.wrapping_add(s as u64);
            let pick = Pick::Seeded(StdRng::seed_from_u64(seed));
            let run = run_once(cfg, pick, None, &program);
            audit(&mut report, &mut seen, cfg, run, None, Some(seed));
        }

        // A kill at every commit boundary of the computation.
        report.kill_points = (1..=commits).map(|c| KillPoint { commit: c }).collect();
        for kp in report.kill_points.clone() {
            let mut fired = 0usize;
            for s in 0..cfg.seeds_per_kill {
                let seed = cfg
                    .base_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(kp.commit * 10_007 + s as u64);
                let pick = Pick::Seeded(StdRng::seed_from_u64(seed));
                let run = run_once(cfg, pick, Some(kp), &program);
                fired += usize::from(run.kill_fired);
                audit(&mut report, &mut seen, cfg, run, Some(kp), Some(seed));
            }
            report.kills_fired.push((kp, fired));
        }
    }
    report.distinct_schedules = seen.len();
    report
}
