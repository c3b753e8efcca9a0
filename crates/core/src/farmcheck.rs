//! Virtual-program models of the level-synchronous farm for the
//! `plinda::check` interleaving explorer.
//!
//! [`crate::parallel::parallel_wave`] and [`crate::parallel::parallel_edt`]
//! run on real threads, so a test run exercises one OS-chosen
//! interleaving. This module re-expresses their shared master/worker
//! protocol as deterministic [`VirtualProgram`] state
//! machines, so [`plinda::check::explore()`] can enumerate schedules and
//! kill a worker at *every* commit boundary of the run (§7.1.2):
//!
//! * [`WaveMaster`] owns the lattice frontier: it outs one level of
//!   candidate tasks, ins the level's reports, expands the good patterns'
//!   children into the next wave under the same pruning rule as the real
//!   level loop (parent-only for the wave, all subpatterns for PLED), and
//!   finally outs one poison pill per worker, one
//!   `("wave.good", encoding, goodness)` tuple per good pattern and one
//!   `("wave.tested", count)` tuple. The master never opens a transaction
//!   — exactly like the
//!   real farm master — so every kill point the explorer derives lands on
//!   a worker commit.
//! * [`WaveWorker`] is the transactional half: take a task, grade it,
//!   out the report, commit; a poison pill commits its own withdrawal and
//!   exits. Workers are stateless, so the explorer's kill/re-spawn cycle
//!   (fresh incarnation from the factory, aborted transaction restored)
//!   models the real runtime's recovery.
//!
//! The published good set and tested count double as the
//! sequential-equivalence oracle: [`wave_expected_final`] computes the
//! tuples a failure-free run must leave behind straight from
//! [`crate::etree::sequential_ett`] (and [`expected_final`] from any
//! sequential outcome), and every explored schedule must converge to
//! exactly that space.

use crate::parallel::Pruning;
use crate::problem::{MiningOutcome, MiningProblem, PatternCodec};
use plinda::check::{Action, ExploreConfig, Reply, VirtualProgram};
use plinda::{field, tup, Template, Tuple};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Task flag of an ordinary candidate task.
const NORMAL: i64 = 0;
/// Task flag of a poison pill.
const POISON: i64 = -1;

/// Template matching any wave task: `("wave.task", flag, encoding)`.
pub fn wave_task_tmpl() -> Template {
    Template::new(vec![field::val("wave.task"), field::int(), field::bytes()])
}

/// Template matching any wave report: `("wave.result", encoding, goodness)`.
pub fn wave_result_tmpl() -> Template {
    Template::new(vec![
        field::val("wave.result"),
        field::bytes(),
        field::real(),
    ])
}

/// Template matching a published good pattern:
/// `("wave.good", encoding, goodness)`.
pub fn wave_good_tmpl() -> Template {
    Template::new(vec![field::val("wave.good"), field::bytes(), field::real()])
}

/// Template matching the published tested count: `("wave.tested", n)`.
pub fn wave_tested_tmpl() -> Template {
    Template::new(vec![field::val("wave.tested"), field::int()])
}

/// The master half of the virtual wave farm.
pub struct WaveMaster<P: MiningProblem + PatternCodec> {
    problem: Arc<P>,
    workers: usize,
    pruning: Pruning,
    /// Pending `Out`s, emitted back-to-front.
    queue: Vec<Tuple>,
    /// Reports still outstanding for the wave in flight.
    pending: usize,
    /// The in-flight wave's dispatch order (encodings).
    order: Vec<Vec<u8>>,
    patterns: HashMap<Vec<u8>, P::Pattern>,
    grades: HashMap<Vec<u8>, f64>,
    good: BTreeMap<P::Pattern, f64>,
    tested: i64,
    first: bool,
    done: bool,
}

impl<P: MiningProblem + PatternCodec> WaveMaster<P> {
    /// A fresh wave master (parent-only pruning) driving `workers`
    /// workers over `problem`.
    pub fn new(problem: Arc<P>, workers: usize) -> Self {
        Self::with_pruning(problem, workers, Pruning::Parent)
    }

    pub(crate) fn with_pruning(problem: Arc<P>, workers: usize, pruning: Pruning) -> Self {
        WaveMaster {
            problem,
            workers,
            pruning,
            queue: Vec::new(),
            pending: 0,
            order: Vec::new(),
            patterns: HashMap::new(),
            grades: HashMap::new(),
            good: BTreeMap::new(),
            tested: 0,
            first: true,
            done: false,
        }
    }

    /// Fold the completed wave and stage the next one (or the shutdown
    /// outs). Expansion follows dispatch order, never report arrival
    /// order, so every schedule computes identical waves.
    fn finish_wave(&mut self) {
        let mut next = Vec::new();
        if self.first {
            self.first = false;
            next = self.problem.children(&self.problem.root());
        }
        for enc in std::mem::take(&mut self.order) {
            let p = self.patterns.remove(&enc).expect("dispatched pattern");
            let g = self.grades[&enc];
            self.tested += 1;
            if self.problem.is_good(&p, g) {
                next.extend(self.problem.children(&p));
                self.good.insert(p, g);
            }
        }
        self.grades.clear();
        next.retain(|p| self.pruning.admits(&*self.problem, p, &self.good));

        if next.is_empty() {
            // Shutdown: one pill per worker, then the good set and the
            // tested count.
            self.done = true;
            let mut outs = Vec::new();
            for _ in 0..self.workers {
                outs.push(tup!["wave.task", POISON, Vec::<u8>::new()]);
            }
            for (p, g) in &self.good {
                outs.push(tup!["wave.good", self.problem.encode_pattern(p), *g]);
            }
            outs.push(tup!["wave.tested", self.tested]);
            outs.reverse();
            self.queue = outs;
        } else {
            for p in next {
                let enc = self.problem.encode_pattern(&p);
                self.queue.push(tup!["wave.task", NORMAL, enc.clone()]);
                self.order.push(enc.clone());
                self.patterns.insert(enc, p);
            }
            self.queue.reverse();
            self.pending = self.order.len();
        }
    }
}

impl<P: MiningProblem + PatternCodec> VirtualProgram for WaveMaster<P> {
    fn next(&mut self, reply: Reply) -> Action {
        if let Reply::Got(t) = &reply {
            self.pending -= 1;
            self.grades.insert(t.bytes(1).to_vec(), t.real(2));
        }
        loop {
            if let Some(t) = self.queue.pop() {
                return Action::Out(t);
            }
            if self.pending > 0 {
                return Action::In(wave_result_tmpl());
            }
            if self.done {
                return Action::Exit;
            }
            self.finish_wave();
        }
    }
}

/// Worker state: the transactional take/grade/report/commit loop.
enum WState {
    Boot,
    Started,
    AwaitTask,
    HaveOut,
    Finishing { exit: bool },
}

/// The worker half of the virtual wave farm: a stateless candidate
/// grader, killable (and re-spawnable) at every commit.
pub struct WaveWorker<P: MiningProblem + PatternCodec> {
    problem: Arc<P>,
    state: WState,
}

impl<P: MiningProblem + PatternCodec> WaveWorker<P> {
    /// A fresh worker incarnation.
    pub fn new(problem: Arc<P>) -> Self {
        WaveWorker {
            problem,
            state: WState::Boot,
        }
    }
}

impl<P: MiningProblem + PatternCodec> VirtualProgram for WaveWorker<P> {
    fn next(&mut self, reply: Reply) -> Action {
        match std::mem::replace(&mut self.state, WState::Boot) {
            WState::Boot => {
                self.state = WState::Started;
                Action::Xstart
            }
            WState::Started => {
                self.state = WState::AwaitTask;
                Action::In(wave_task_tmpl())
            }
            WState::AwaitTask => {
                let t = match reply {
                    Reply::Got(t) => t,
                    other => panic!("worker expected a task, got {other:?}"),
                };
                if t.int(1) == POISON {
                    self.state = WState::Finishing { exit: true };
                    Action::Xcommit(None)
                } else {
                    let p = self.problem.decode_pattern(t.bytes(2));
                    let g = self.problem.goodness(&p);
                    self.state = WState::HaveOut;
                    Action::Out(tup!["wave.result", t.bytes(2).to_vec(), g])
                }
            }
            WState::HaveOut => {
                self.state = WState::Finishing { exit: false };
                Action::Xcommit(None)
            }
            WState::Finishing { exit } => {
                if exit {
                    Action::Exit
                } else {
                    self.state = WState::Started;
                    Action::Xstart
                }
            }
        }
    }
}

/// Build an [`ExploreConfig`] running the wave farm for `problem` with
/// `workers` virtual workers: master + workers installed, the published
/// good set and tested count allow-listed as the run's result tuples.
/// Callers may still tune the run counts before calling
/// [`plinda::check::explore()`].
pub fn wave_explore_config<P>(problem: Arc<P>, workers: usize) -> ExploreConfig
where
    P: MiningProblem + PatternCodec + 'static,
{
    explore_config(problem, workers, Pruning::Parent)
}

fn explore_config<P>(problem: Arc<P>, workers: usize, pruning: Pruning) -> ExploreConfig
where
    P: MiningProblem + PatternCodec + 'static,
{
    assert!(workers >= 1, "need at least one worker");
    let mp = Arc::clone(&problem);
    let mut cfg = ExploreConfig::new()
        .program(move || WaveMaster::with_pruning(Arc::clone(&mp), workers, pruning))
        .allow_leftover(wave_good_tmpl())
        .allow_leftover(wave_tested_tmpl());
    for _ in 0..workers {
        let wp = Arc::clone(&problem);
        cfg = cfg.program(move || WaveWorker::new(Arc::clone(&wp)));
    }
    cfg
}

/// The final space every explored wave schedule must converge to: the
/// [`expected_final`] space of the *sequential* E-tree traversal.
/// Comparing [`plinda::check::ExploreReport::reference_final`] against
/// this pins sequential equivalence to the real sequential miner, not
/// merely to the explorer's own reference run.
pub fn wave_expected_final<P>(problem: &P) -> Vec<Tuple>
where
    P: MiningProblem + PatternCodec,
{
    expected_final(problem, &crate::etree::sequential_ett(problem))
}

/// The final space of a run that mined `outcome`: one
/// `("wave.good", encoding, goodness)` tuple per good pattern and one
/// `("wave.tested", count)` tuple, in the explorer's canonical (encoded)
/// order.
pub fn expected_final<P>(problem: &P, outcome: &MiningOutcome<P::Pattern>) -> Vec<Tuple>
where
    P: MiningProblem + PatternCodec,
{
    let mut tuples: Vec<Tuple> = outcome
        .good
        .iter()
        .map(|(p, &g)| tup!["wave.good", problem.encode_pattern(p), g])
        .collect();
    tuples.push(tup!["wave.tested", outcome.tested as i64]);
    tuples.sort_by_key(plinda::codec::encode_tuple);
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{ToyItemsets, ToySeq};
    use plinda::check::explore;

    #[test]
    fn toy_seq_wave_survives_every_commit_boundary_kill() {
        let p = Arc::new(ToySeq::new(vec!["FFRR", "MRRM", "MTRM"], 2, 3));
        let mut cfg = wave_explore_config(Arc::clone(&p), 2);
        cfg.random_schedules = 10;
        cfg.seeds_per_kill = 3;
        let report = explore(&cfg);
        assert!(
            report.is_clean(),
            "{} of {} runs failed; first: {:#?}",
            report.failures.len(),
            report.runs,
            report.failures.first()
        );
        assert_eq!(report.reference_final, wave_expected_final(&*p));
        // One kill point per worker commit: every tested candidate plus
        // one pill per worker.
        let expected = crate::etree::sequential_ett(&*p).tested + 2;
        assert_eq!(report.kill_points.len() as u64, expected);
        for (kp, fired) in &report.kills_fired {
            assert!(*fired > 0, "kill at commit {} never fired", kp.commit);
        }
    }

    #[test]
    fn toy_itemsets_wave_matches_sequential() {
        let p = Arc::new(ToyItemsets::new(
            vec![vec![1, 2, 3], vec![1, 2], vec![2, 3], vec![1, 3]],
            2,
        ));
        let mut cfg = wave_explore_config(Arc::clone(&p), 3);
        cfg.random_schedules = 8;
        cfg.seeds_per_kill = 2;
        let report = explore(&cfg);
        assert!(report.is_clean(), "{:#?}", report.failures.first());
        assert_eq!(report.reference_final, wave_expected_final(&*p));
    }

    #[test]
    fn toy_itemsets_pled_survives_every_commit_boundary_kill() {
        let p = Arc::new(ToyItemsets::new(
            vec![
                vec![1, 2, 3],
                vec![1, 2],
                vec![1, 3, 4],
                vec![2, 3],
                vec![1, 2, 3, 4],
                vec![2, 4],
            ],
            2,
        ));
        let seq = crate::edag::sequential_edt(&*p);
        assert!(
            seq.tested < crate::etree::sequential_ett(&*p).tested,
            "the E-dag rule must prune something here"
        );
        let mut cfg = explore_config(Arc::clone(&p), 2, Pruning::Subpatterns);
        cfg.random_schedules = 8;
        cfg.seeds_per_kill = 2;
        let report = explore(&cfg);
        assert!(
            report.is_clean(),
            "{} of {} runs failed; first: {:#?}",
            report.failures.len(),
            report.runs,
            report.failures.first()
        );
        // Good set and tested count both equal the sequential EDT's.
        assert_eq!(report.reference_final, expected_final(&*p, &seq));
        assert_eq!(report.kill_points.len() as u64, seq.tested + 2);
        for (kp, fired) in &report.kills_fired {
            assert!(*fired > 0, "kill at commit {} never fired", kp.commit);
        }
    }

    #[test]
    fn empty_problem_publishes_nothing() {
        let p = Arc::new(ToyItemsets::new(vec![], 1));
        let mut cfg = wave_explore_config(Arc::clone(&p), 2);
        cfg.random_schedules = 4;
        cfg.seeds_per_kill = 2;
        let report = explore(&cfg);
        assert!(report.is_clean(), "{:#?}", report.failures.first());
        assert_eq!(report.reference_final, [tup!["wave.tested", 0i64]]);
    }
}
