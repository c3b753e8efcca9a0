//! # `nowsim` — a discrete-event simulator of a network of workstations
//!
//! The dissertation's Chapter 4 and 6 experiments ran on LANs of up to ~50
//! Sun SPARC 5 workstations harvesting idle cycles. The quantities those
//! experiments measure — efficiency vs. machine count, the cost of load
//! imbalance, the benefit of the adaptive master, super-linear effects,
//! recovery from owner-return "failures" — are properties of the *task
//! structure and cost model*, not of the 1998 hardware. This crate
//! reproduces the platform as a deterministic discrete-event simulation:
//!
//! * a pool of [`MachineSpec`]s, each with a speed factor, optional
//!   owner-activity (busy) intervals during which it takes no work, and an
//!   optional crash time;
//! * a dynamic bag-of-tasks workload, described by a [`SimProgram`] that
//!   supplies initial tasks and spawns new tasks when tasks complete
//!   (exactly how the E-tree traversal workers of §4.2 generate work);
//! * a serial **master bottleneck**: every task passes through the master
//!   before becoming visible to workers, occupying the master for
//!   `master_overhead` simulated seconds — the master contention the
//!   dissertation's §2.4.4 discussion warns about;
//! * per-task `dispatch_overhead` (tuple-op latency on the worker side);
//! * PLinda-style recovery: when a machine crashes or its owner returns
//!   mid-task, the in-flight task is aborted and re-queued after
//!   `requeue_delay` (transaction abort + failure detection).
//!
//! Real parallel runs on threads (via the `plinda` crate) validate the
//! simulator at small machine counts; the simulator extends the curves to
//! machine counts this container does not have.
//!
//! ## Example
//!
//! ```
//! use nowsim::{MachineSpec, SimConfig, Simulator};
//!
//! // Ten equal tasks of 1s on two machines: perfect 2x speedup.
//! let report = Simulator::run_static(
//!     &[1.0; 10],
//!     &[MachineSpec::ideal(), MachineSpec::ideal()],
//!     &SimConfig::zero_overhead(),
//! );
//! assert!((report.makespan - 5.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

use plinda::metrics::{Counter, Gauge, Histogram};
use plinda::MetricsRegistry;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated seconds → integer nanoseconds, the unit every duration
/// metric uses so simulated and real ledgers share one schema.
fn secs_to_ns(s: f64) -> u64 {
    (s.max(0.0) * 1e9).round() as u64
}

/// One simulated workstation.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Relative speed: a task of cost `c` takes `c / speed` seconds here.
    pub speed: f64,
    /// Intervals `[from, to)` of simulated time during which the
    /// workstation's owner is active: the machine takes no new work and
    /// aborts any task in flight when an interval begins (the "retreat" of
    /// §2.4.5 / PLinda's simulated failure of §7.1.1).
    pub busy: Vec<(f64, f64)>,
    /// If set, the machine crashes permanently at this time.
    pub crash_at: Option<f64>,
}

impl MachineSpec {
    /// A machine of speed 1 that is always idle and never fails.
    pub fn ideal() -> Self {
        MachineSpec {
            speed: 1.0,
            busy: Vec::new(),
            crash_at: None,
        }
    }

    /// An always-available machine with the given speed factor.
    pub fn with_speed(speed: f64) -> Self {
        assert!(speed > 0.0, "machine speed must be positive");
        MachineSpec {
            speed,
            busy: Vec::new(),
            crash_at: None,
        }
    }

    /// Add an owner-busy interval.
    pub fn busy_between(mut self, from: f64, to: f64) -> Self {
        assert!(from < to, "busy interval must be non-empty");
        self.busy.push((from, to));
        self
    }

    /// Set a permanent crash time.
    pub fn crashing_at(mut self, t: f64) -> Self {
        self.crash_at = Some(t);
        self
    }
}

/// Global cost-model knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Serial master time consumed per task before it becomes visible to
    /// workers (task creation + tuple-space `out` handled by the server).
    pub master_overhead: f64,
    /// Latency a worker pays to fetch a task and report its result
    /// (tuple-space `in` + `out` round trips).
    pub dispatch_overhead: f64,
    /// Delay between a failure and the aborted task reappearing in the bag
    /// (failure detection + transaction abort).
    pub requeue_delay: f64,
}

impl SimConfig {
    /// All overheads zero (ideal machine; used in tests).
    pub fn zero_overhead() -> Self {
        SimConfig {
            master_overhead: 0.0,
            dispatch_overhead: 0.0,
            requeue_delay: 0.0,
        }
    }

    /// Overheads representative of the dissertation's LAN environment, in
    /// simulated seconds: a few milliseconds of master work and tuple
    /// latency per task, 100 ms to detect a failure and requeue.
    pub fn lan_default() -> Self {
        SimConfig {
            master_overhead: 0.004,
            dispatch_overhead: 0.012,
            requeue_delay: 0.1,
        }
    }
}

/// A unit of work in the bag of tasks.
#[derive(Debug, Clone)]
pub struct SimTask {
    /// Caller-meaningful identifier (e.g. an E-tree node index).
    pub id: u64,
    /// Work content in speed-1 seconds.
    pub cost: f64,
    /// If set, only this machine may run the task (used to pin the
    /// master's own share of the work, e.g. growing the main tree in
    /// Parallel NyuMiner-CV).
    pub pinned: Option<usize>,
}

impl SimTask {
    /// Unpinned task.
    pub fn new(id: u64, cost: f64) -> Self {
        SimTask {
            id,
            cost,
            pinned: None,
        }
    }

    /// Task that must run on machine `m`.
    pub fn pinned(id: u64, cost: f64, m: usize) -> Self {
        SimTask {
            id,
            cost,
            pinned: Some(m),
        }
    }
}

/// A dynamic workload: the simulator calls [`SimProgram::on_complete`]
/// whenever a task finishes; returned tasks join the bag (after the master
/// overhead). This is how E-tree workers "out" child work tuples.
pub trait SimProgram {
    /// Tasks available at time zero.
    fn initial_tasks(&mut self) -> Vec<SimTask>;
    /// Tasks spawned by the completion of `task`.
    fn on_complete(&mut self, task: &SimTask) -> Vec<SimTask>;
}

/// A static bag of tasks (no dynamic spawning).
pub struct StaticProgram {
    tasks: Vec<SimTask>,
}

impl StaticProgram {
    /// Wrap a fixed task list.
    pub fn new(tasks: Vec<SimTask>) -> Self {
        StaticProgram { tasks }
    }
}

impl SimProgram for StaticProgram {
    fn initial_tasks(&mut self) -> Vec<SimTask> {
        std::mem::take(&mut self.tasks)
    }
    fn on_complete(&mut self, _task: &SimTask) -> Vec<SimTask> {
        Vec::new()
    }
}

/// What the simulation observed.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of the last task (simulated seconds).
    pub makespan: f64,
    /// Tasks completed.
    pub completed: u64,
    /// Task executions aborted by failures/owner returns (each such task
    /// was re-queued and eventually completed elsewhere).
    pub aborted: u64,
    /// Per-machine busy (executing) time.
    pub busy_time: Vec<f64>,
}

impl SimReport {
    /// `sequential_time / (machines * makespan)` — the efficiency measure
    /// of §4.3.
    pub fn efficiency(&self, sequential_time: f64, machines: usize) -> f64 {
        sequential_time / (machines as f64 * self.makespan)
    }

    /// `sequential_time / makespan`.
    pub fn speedup(&self, sequential_time: f64) -> f64 {
        sequential_time / self.makespan
    }
}

#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    /// Task finished on machine.
    Finish { machine: usize, task_seq: usize },
    /// Task (re-)enters the visible bag.
    TaskVisible { task_seq: usize },
    /// Owner returns to machine.
    OwnerArrive { machine: usize },
    /// Owner leaves machine.
    OwnerLeave { machine: usize },
    /// Machine crashes permanently.
    Crash { machine: usize },
}

#[derive(Debug, Clone)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum MachineState {
    Idle,
    /// Running `task_seq` since `started_at`; the matching finish event is
    /// invalidated if the run is aborted first.
    Running {
        task_seq: usize,
        started_at: f64,
    },
    OwnerBusy,
    Dead,
}

/// Cached live-ledger handles (see [`plinda::metrics`]); updates through
/// them are lock-free, so metering does not perturb the event loop.
struct SimMeter {
    admitted: Counter,
    requeued: Counter,
    aborted: Counter,
    completed: Counter,
    depth: Gauge,
    duration: Histogram,
}

impl SimMeter {
    fn new(reg: &MetricsRegistry) -> Self {
        SimMeter {
            admitted: reg.counter("sim.tasks.admitted"),
            requeued: reg.counter("sim.tasks.requeued"),
            aborted: reg.counter("sim.tasks.aborted"),
            completed: reg.counter("sim.tasks.completed"),
            depth: reg.gauge("sim.bag.depth"),
            duration: reg.histogram("sim.task.duration_ns"),
        }
    }
}

struct Engine<'a> {
    machines: &'a [MachineSpec],
    config: &'a SimConfig,
    reg: Option<&'a MetricsRegistry>,
    met: Option<SimMeter>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    tasks: Vec<SimTask>,
    bag: VecDeque<usize>,
    pinned: Vec<VecDeque<usize>>,
    master_free_at: f64,
    state: Vec<MachineState>,
    busy_time: Vec<f64>,
    completed: u64,
    aborted: u64,
    admitted: u64,
    outstanding: u64,
    makespan: f64,
}

impl<'a> Engine<'a> {
    fn new(
        machines: &'a [MachineSpec],
        config: &'a SimConfig,
        reg: Option<&'a MetricsRegistry>,
    ) -> Self {
        let n = machines.len();
        let mut e = Engine {
            machines,
            config,
            reg,
            met: reg.map(SimMeter::new),
            heap: BinaryHeap::new(),
            seq: 0,
            tasks: Vec::new(),
            bag: VecDeque::new(),
            pinned: vec![VecDeque::new(); n],
            master_free_at: 0.0,
            state: vec![MachineState::Idle; n],
            busy_time: vec![0.0; n],
            completed: 0,
            aborted: 0,
            admitted: 0,
            outstanding: 0,
            makespan: 0.0,
        };
        for (m, spec) in machines.iter().enumerate() {
            for &(from, to) in &spec.busy {
                e.push(from, EventKind::OwnerArrive { machine: m });
                e.push(to, EventKind::OwnerLeave { machine: m });
            }
            if let Some(t) = spec.crash_at {
                e.push(t, EventKind::Crash { machine: m });
            }
        }
        e
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Route freshly created tasks through the serial master pipe.
    fn admit(&mut self, now: f64, new_tasks: Vec<SimTask>) {
        for t in new_tasks {
            let visible_at = self.master_free_at.max(now) + self.config.master_overhead;
            self.master_free_at = visible_at;
            let task_seq = self.tasks.len();
            self.tasks.push(t);
            self.outstanding += 1;
            self.admitted += 1;
            if let Some(m) = &self.met {
                m.admitted.inc();
            }
            self.push(visible_at, EventKind::TaskVisible { task_seq });
        }
    }

    /// Re-insert an aborted task directly into the bag after the requeue
    /// delay (it already passed through the master once).
    fn requeue(&mut self, now: f64, task_seq: usize) {
        if let Some(m) = &self.met {
            m.requeued.inc();
        }
        self.push(
            now + self.config.requeue_delay,
            EventKind::TaskVisible { task_seq },
        );
    }

    /// Update the bag-depth gauge (its high-water mark is the ledger's
    /// queue watermark) to the count of visible, unassigned tasks.
    fn note_depth(&self) {
        if let Some(m) = &self.met {
            let d = self.bag.len() + self.pinned.iter().map(VecDeque::len).sum::<usize>();
            m.depth.set(d as i64);
        }
    }

    fn try_assign(&mut self, now: f64, m: usize) {
        if self.state[m] != MachineState::Idle {
            return;
        }
        let next = self.pinned[m].pop_front().or_else(|| {
            for i in 0..self.bag.len() {
                let ts = self.bag[i];
                match self.tasks[ts].pinned {
                    Some(p) if p != m => continue,
                    _ => {
                        self.bag.remove(i);
                        return Some(ts);
                    }
                }
            }
            None
        });
        if let Some(task_seq) = next {
            let dur = (self.tasks[task_seq].cost + self.config.dispatch_overhead)
                / self.machines[m].speed;
            self.state[m] = MachineState::Running {
                task_seq,
                started_at: now,
            };
            self.push(
                now + dur,
                EventKind::Finish {
                    machine: m,
                    task_seq,
                },
            );
            self.note_depth();
        }
    }

    fn assign_all(&mut self, now: f64) {
        for m in 0..self.machines.len() {
            self.try_assign(now, m);
        }
    }

    fn run(mut self, program: &mut dyn SimProgram) -> SimReport {
        let initial = program.initial_tasks();
        self.admit(0.0, initial);

        while let Some(Reverse(ev)) = self.heap.pop() {
            let now = ev.time;
            match ev.kind {
                EventKind::TaskVisible { task_seq } => {
                    match self.tasks[task_seq].pinned {
                        Some(p) => self.pinned[p].push_back(task_seq),
                        None => self.bag.push_back(task_seq),
                    }
                    self.note_depth();
                    self.assign_all(now);
                }
                EventKind::Finish { machine, task_seq } => {
                    let started_at = match self.state[machine] {
                        MachineState::Running {
                            task_seq: ts,
                            started_at,
                        } if ts == task_seq => started_at,
                        _ => continue, // stale finish from an aborted run
                    };
                    self.state[machine] = MachineState::Idle;
                    self.busy_time[machine] += now - started_at;
                    self.completed += 1;
                    self.outstanding -= 1;
                    self.makespan = self.makespan.max(now);
                    if let Some(m) = &self.met {
                        m.completed.inc();
                        m.duration.observe(secs_to_ns(now - started_at));
                    }
                    let spawned = program.on_complete(&self.tasks[task_seq]);
                    self.admit(now, spawned);
                    self.assign_all(now);
                    if self.outstanding == 0 {
                        break;
                    }
                }
                EventKind::OwnerArrive { machine } | EventKind::Crash { machine } => {
                    let crash = matches!(ev.kind, EventKind::Crash { .. });
                    if let MachineState::Running {
                        task_seq,
                        started_at,
                    } = self.state[machine]
                    {
                        // Only the executed prefix counts as busy time, so
                        // per-machine utilisation stays within [0, 1] even
                        // on abort-heavy runs.
                        self.busy_time[machine] += now - started_at;
                        self.aborted += 1;
                        if let Some(m) = &self.met {
                            m.aborted.inc();
                        }
                        self.requeue(now, task_seq);
                    }
                    self.state[machine] = if crash {
                        MachineState::Dead
                    } else {
                        MachineState::OwnerBusy
                    };
                }
                EventKind::OwnerLeave { machine } => {
                    if self.state[machine] != MachineState::Dead {
                        self.state[machine] = MachineState::Idle;
                        self.assign_all(now);
                    }
                }
            }
        }

        assert_eq!(
            self.outstanding, 0,
            "simulation deadlocked (all machines dead, or tasks pinned to \
             a dead machine?)"
        );

        // Fold the per-machine/master summary into the ledger, mirroring
        // what `TaskFarm::finish` does for real runs.
        if let Some(reg) = self.reg {
            for (m, &b) in self.busy_time.iter().enumerate() {
                reg.counter(&format!("sim.machine.{m}.busy_ns"))
                    .add(secs_to_ns(b));
                let util = if self.makespan > 0.0 {
                    ((b / self.makespan * 1e6).round() as i64).min(1_000_000)
                } else {
                    0
                };
                reg.gauge(&format!("sim.machine.{m}.util_ppm")).set(util);
            }
            reg.counter("sim.master.busy_ns").add(secs_to_ns(
                self.admitted as f64 * self.config.master_overhead,
            ));
            reg.counter("sim.makespan_ns")
                .add(secs_to_ns(self.makespan));
        }

        SimReport {
            makespan: self.makespan,
            completed: self.completed,
            aborted: self.aborted,
            busy_time: self.busy_time,
        }
    }
}

/// The discrete-event engine entry points.
pub struct Simulator;

impl Simulator {
    /// Run a static list of task costs (speed-1 seconds) to completion.
    pub fn run_static(costs: &[f64], machines: &[MachineSpec], config: &SimConfig) -> SimReport {
        let tasks = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| SimTask::new(i as u64, c))
            .collect();
        Self::run(&mut StaticProgram::new(tasks), machines, config, None)
    }

    /// Run `program` on `machines` to completion and report. With a
    /// metrics registry the run records live `sim.tasks.*` counters, a
    /// `sim.bag.depth` gauge and a `sim.task.duration_ns` histogram, plus
    /// per-machine `busy_ns`/`util_ppm` and master/makespan totals folded
    /// in at the end — the simulated twin of the ledger a real
    /// [`plinda::TaskFarm`] run produces, in the same snapshot schema.
    pub fn run(
        program: &mut dyn SimProgram,
        machines: &[MachineSpec],
        config: &SimConfig,
        metrics: Option<&MetricsRegistry>,
    ) -> SimReport {
        assert!(!machines.is_empty(), "need at least one machine");
        Engine::new(machines, config, metrics).run(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_machine_serializes() {
        let r = Simulator::run_static(
            &[1.0, 2.0, 3.0],
            &[MachineSpec::ideal()],
            &SimConfig::zero_overhead(),
        );
        assert!((r.makespan - 6.0).abs() < 1e-9);
        assert_eq!(r.completed, 3);
    }

    #[test]
    fn two_machines_halve_even_work() {
        let r = Simulator::run_static(
            &[1.0; 10],
            &[MachineSpec::ideal(), MachineSpec::ideal()],
            &SimConfig::zero_overhead(),
        );
        assert!((r.makespan - 5.0).abs() < 1e-9);
        assert!((r.efficiency(10.0, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn load_imbalance_shows_in_makespan() {
        let mut costs = vec![10.0];
        costs.extend(std::iter::repeat_n(1.0, 9));
        let r = Simulator::run_static(
            &costs,
            &[MachineSpec::ideal(), MachineSpec::ideal()],
            &SimConfig::zero_overhead(),
        );
        assert!((r.makespan - 10.0).abs() < 1e-9);
    }

    #[test]
    fn speed_factors_scale_execution() {
        let r = Simulator::run_static(
            &[4.0],
            &[MachineSpec::with_speed(2.0)],
            &SimConfig::zero_overhead(),
        );
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn master_overhead_serializes_task_admission() {
        let cfg = SimConfig {
            master_overhead: 1.0,
            dispatch_overhead: 0.0,
            requeue_delay: 0.0,
        };
        // 4 zero-cost tasks still take 4 master-seconds to admit.
        let r = Simulator::run_static(&[0.0; 4], &[MachineSpec::ideal()], &cfg);
        assert!((r.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    fn owner_return_aborts_and_requeues() {
        let cfg = SimConfig {
            master_overhead: 0.0,
            dispatch_overhead: 0.0,
            requeue_delay: 0.5,
        };
        let machines = [
            MachineSpec::ideal().busy_between(1.0, 100.0),
            MachineSpec::ideal(),
        ];
        let r = Simulator::run_static(&[10.0], &machines, &cfg);
        assert_eq!(r.aborted, 1);
        assert_eq!(r.completed, 1);
        // Aborted at 1.0, requeued at 1.5, runs 10s on machine 1.
        assert!((r.makespan - 11.5).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn crash_with_survivor_completes() {
        let machines = [MachineSpec::ideal().crashing_at(0.5), MachineSpec::ideal()];
        let r = Simulator::run_static(&[2.0, 2.0], &machines, &SimConfig::zero_overhead());
        assert_eq!(r.completed, 2);
        assert!(r.aborted >= 1);
    }

    #[test]
    fn pinned_tasks_wait_for_their_machine() {
        let mut prog =
            StaticProgram::new(vec![SimTask::pinned(0, 1.0, 0), SimTask::pinned(1, 1.0, 0)]);
        let r = Simulator::run(
            &mut prog,
            &[MachineSpec::ideal(), MachineSpec::ideal()],
            &SimConfig::zero_overhead(),
            None,
        );
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert!(r.busy_time[1] < 1e-9);
    }

    /// Completing node i spawns 2i+1 and 2i+2 while i < 7 (15 nodes).
    struct TreeProgram;
    impl SimProgram for TreeProgram {
        fn initial_tasks(&mut self) -> Vec<SimTask> {
            vec![SimTask::new(0, 1.0)]
        }
        fn on_complete(&mut self, task: &SimTask) -> Vec<SimTask> {
            if task.id < 7 {
                vec![
                    SimTask::new(2 * task.id + 1, 1.0),
                    SimTask::new(2 * task.id + 2, 1.0),
                ]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn dynamic_spawning_runs_all_nodes() {
        let r = Simulator::run(
            &mut TreeProgram,
            &vec![MachineSpec::ideal(); 4],
            &SimConfig::zero_overhead(),
            None,
        );
        assert_eq!(r.completed, 15);
        // Level widths 1,2,4,8 on 4 machines: 1 + 1 + 1 + 2 = 5 units.
        assert!((r.makespan - 5.0).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn efficiency_and_speedup_accessors() {
        let r = Simulator::run_static(
            &[1.0; 8],
            &vec![MachineSpec::ideal(); 4],
            &SimConfig::zero_overhead(),
        );
        assert!((r.speedup(8.0) - 4.0).abs() < 1e-9);
        assert!((r.efficiency(8.0, 4) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_pool_prefers_no_machine_but_work_finishes() {
        let machines = [
            MachineSpec::with_speed(0.5),
            MachineSpec::with_speed(1.0),
            MachineSpec::with_speed(2.0),
        ];
        let r = Simulator::run_static(&[1.0; 30], &machines, &SimConfig::zero_overhead());
        assert_eq!(r.completed, 30);
        // Aggregate speed is 3.5, so the 30 units of work cannot finish
        // before 30/3.5 s; greedy scheduling keeps it close to that bound.
        assert!(r.makespan >= 30.0 / 3.5 - 1e-9);
        assert!(r.makespan <= 11.0, "makespan {}", r.makespan);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn no_machines_panics() {
        Simulator::run_static(&[1.0], &[], &SimConfig::zero_overhead());
    }

    #[test]
    fn metered_run_ledger_matches_report() {
        let reg = plinda::MetricsRegistry::new();
        let cfg = SimConfig {
            master_overhead: 0.25,
            dispatch_overhead: 0.0,
            requeue_delay: 0.5,
        };
        let machines = [
            MachineSpec::ideal().busy_between(2.0, 100.0),
            MachineSpec::ideal(),
        ];
        let mut prog = StaticProgram::new(vec![
            SimTask::new(0, 10.0),
            SimTask::new(1, 1.0),
            SimTask::new(2, 1.0),
        ]);
        let r = Simulator::run(&mut prog, &machines, &cfg, Some(&reg));
        let snap = reg.snapshot();

        assert_eq!(snap.counter("sim.tasks.admitted"), 3);
        assert_eq!(snap.counter("sim.tasks.completed"), r.completed);
        assert_eq!(snap.counter("sim.tasks.aborted"), r.aborted);
        assert_eq!(
            snap.counter("sim.tasks.requeued"),
            snap.counter("sim.tasks.aborted"),
            "every abort requeues exactly once"
        );
        let durations = snap.histogram("sim.task.duration_ns").unwrap();
        assert_eq!(durations.count, r.completed);
        for m in 0..machines.len() {
            let busy = snap.counter(&format!("sim.machine.{m}.busy_ns"));
            assert_eq!(busy, super::secs_to_ns(r.busy_time[m]));
            let util = snap.gauge(&format!("sim.machine.{m}.util_ppm")).unwrap();
            assert!((0..=1_000_000).contains(&util.value), "util {}", util.value);
        }
        assert_eq!(
            snap.counter("sim.makespan_ns"),
            super::secs_to_ns(r.makespan)
        );
        // Master was occupied for one overhead slot per admitted task.
        assert_eq!(
            snap.counter("sim.master.busy_ns"),
            super::secs_to_ns(3.0 * cfg.master_overhead)
        );
        let violations = plinda::metrics::check_snapshot(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

/// Owner-activity trace generation: workstation pools whose owners come
/// and go — the "huge amount of idle cycles" of §1.1 that free parallel
/// data mining harvests.
pub mod traces {
    use super::MachineSpec;

    /// A deterministic xorshift generator (this crate avoids a `rand`
    /// dependency in its core; traces only need reproducible variety).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// Uniform f64 in [0, 1).
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.unit() * (hi - lo)
        }
    }

    /// Parameters of a simulated owner's working pattern.
    #[derive(Debug, Clone)]
    pub struct OwnerPattern {
        /// Mean length of an owner-active burst (simulated seconds).
        pub busy_mean: f64,
        /// Mean length of an idle gap between bursts.
        pub idle_mean: f64,
    }

    impl Default for OwnerPattern {
        fn default() -> Self {
            // Bursts of ~20 min activity separated by ~40 min of idleness:
            // machines are idle about two-thirds of the time, the regime
            // the dissertation's "run after 5pm" experiments relied on.
            OwnerPattern {
                busy_mean: 1200.0,
                idle_mean: 2400.0,
            }
        }
    }

    /// Build `n` speed-1 machines with owner-busy intervals alternating
    /// per `pattern` over `[0, horizon)`, deterministically from `seed`.
    /// Interval lengths are uniform in `[0.5, 1.5] ×` their mean.
    pub fn workday_pool(
        seed: u64,
        n: usize,
        horizon: f64,
        pattern: &OwnerPattern,
    ) -> Vec<MachineSpec> {
        let mut out = Vec::with_capacity(n);
        for m in 0..n {
            let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (m as u64 + 1));
            // Warm up the generator (xorshift's first outputs correlate
            // with small seeds).
            for _ in 0..8 {
                rng.next();
            }
            let mut spec = MachineSpec::ideal();
            // Phase-shift the first burst so machines desynchronise.
            let mut t = rng.range(0.0, pattern.busy_mean + pattern.idle_mean);
            loop {
                let busy = rng.range(0.5, 1.5) * pattern.busy_mean;
                if t >= horizon {
                    break;
                }
                let end = (t + busy).min(horizon);
                spec = spec.busy_between(t, end);
                t = end + rng.range(0.5, 1.5) * pattern.idle_mean;
            }
            out.push(spec);
        }
        out
    }

    /// Fraction of `[0, horizon)` during which the pool's machines are
    /// idle (the harvestable cycles).
    pub fn idle_fraction(pool: &[MachineSpec], horizon: f64) -> f64 {
        let total: f64 = pool
            .iter()
            .map(|m| {
                let busy: f64 = m
                    .busy
                    .iter()
                    .map(|&(a, b)| (b.min(horizon) - a.min(horizon)).max(0.0))
                    .sum();
                (horizon - busy) / horizon
            })
            .sum();
        total / pool.len().max(1) as f64
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{SimConfig, Simulator};

        #[test]
        fn pool_is_deterministic_and_desynchronised() {
            let p = OwnerPattern::default();
            let a = workday_pool(7, 4, 20_000.0, &p);
            let b = workday_pool(7, 4, 20_000.0, &p);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.busy, y.busy);
            }
            // Different machines, different schedules.
            assert_ne!(a[0].busy, a[1].busy);
            // Intervals are ordered and disjoint.
            for m in &a {
                for w in m.busy.windows(2) {
                    assert!(w[0].1 <= w[1].0, "{:?}", m.busy);
                }
            }
        }

        #[test]
        fn idle_fraction_matches_pattern() {
            let p = OwnerPattern::default();
            let pool = workday_pool(3, 12, 100_000.0, &p);
            let f = idle_fraction(&pool, 100_000.0);
            // busy 1200 vs idle 2400 means ~2/3 idle.
            assert!((0.55..0.8).contains(&f), "idle fraction {f}");
        }

        #[test]
        fn jobs_complete_on_owner_occupied_pools() {
            // The thesis in one assertion: a bag of work finishes on a
            // pool that owners keep interrupting, with tasks re-queued
            // (aborted) but never lost, and the makespan bounded by the
            // idle capacity.
            let p = OwnerPattern {
                busy_mean: 50.0,
                idle_mean: 100.0,
            };
            let pool = workday_pool(11, 4, 1_000_000.0, &p);
            let costs = vec![20.0; 60];
            let cfg = SimConfig {
                requeue_delay: 5.0,
                ..SimConfig::zero_overhead()
            };
            let r = Simulator::run_static(&costs, &pool, &cfg);
            assert_eq!(r.completed, 60);
            assert!(r.aborted > 0, "owner returns should interrupt work");
            // 1200s of work on ~2.6 idle-machines-equivalent.
            assert!(r.makespan < 10_000.0, "makespan {}", r.makespan);
        }
    }
}
