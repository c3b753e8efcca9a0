//! Parallel E-dag / E-tree traversals on the PLinda tuple space.
//!
//! These are the PLED and PLET programs of §3.2.2 and §3.3.3, the
//! optimistic / load-balanced worker variants of §4.2.2 and the hybrid of
//! §3.3.4, expressed over the [`plinda::TaskFarm`] harness (which owns the
//! master/worker skeleton — task/result channels, poison-pill shutdown,
//! fault injection). Ch. 3 defines the E-tree as a relaxation of the
//! E-dag, so the drivers differ only in their pruning rule and in where
//! the level barrier stops; they share three master loops:
//!
//! * a **level-synchronous loop** over a grade-only worker: dispatch one
//!   level as one deferred burst, collect its reports in bulk, expand the
//!   good patterns in dispatch order. [`parallel_wave`] runs it with
//!   parent-only pruning; [`parallel_edt`] (PLED, Figs. 3.4/3.5) with the
//!   E-dag rule of Definition 2 — a pattern is dispatched only once *all*
//!   its immediate subpatterns are known good; [`parallel_hybrid`] with
//!   the E-dag rule down to its switch level.
//! * a **counter-terminated load-balanced tail** (Figs. 4.6/4.7): workers
//!   expand good patterns into new work tuples themselves, so any idle
//!   worker can help on any branch, and the master waits for the shared
//!   outstanding-work counter to reach zero. It is PLET-LB
//!   ([`parallel_ett`] with [`WorkerStrategy::LoadBalanced`]) and the
//!   hybrid's second phase.
//! * the **optimistic subtree loop** (Figs. 4.4/4.5, [`parallel_ett`] with
//!   [`WorkerStrategy::Optimistic`]): a worker takes one task and
//!   traverses that whole subtree locally (minimal communication, no
//!   balancing).
//!
//! [`parallel_ett`]'s *adaptive master* (§4.3.2) is `initial_task_level`:
//! the master itself traverses the first `initial_task_level - 1` levels
//! and emits tasks at `initial_task_level`, producing more (smaller)
//! initial tasks when many workers are available.
//!
//! Every driver takes its run parameters as one [`ParallelConfig`], and
//! all of them produce identical good-pattern sets (Theorems 2–4); the
//! tests and `tests/integration_parallel_mining.rs` check this, including
//! under injected worker failures.

use crate::problem::{MiningOutcome, MiningProblem, PatternCodec};
use plinda::{FarmConfig, Payload, TaskFarm, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Worker style for [`parallel_ett`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStrategy {
    /// Workers expand good patterns into new work tuples (Figs. 4.6/4.7).
    LoadBalanced,
    /// Workers consume a whole subtree per task (Figs. 4.4/4.5).
    Optimistic,
}

/// Configuration of a parallel run: the one run argument of every
/// parallel driver in the workspace.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Worker style.
    pub strategy: WorkerStrategy,
    /// The level at which the master emits initial tasks; levels above it
    /// are traversed by the master itself. `1` is the plain master; the
    /// adaptive master of §4.3.2 picks `2` when six or more machines are
    /// available.
    pub initial_task_level: usize,
    /// Failure injections: `(delay from start, worker index)` kills — the
    /// simulated workstation-owner returns of §7.1.1. The runtime aborts
    /// the victim's open transaction and re-spawns it; results must be
    /// unaffected (PLinda's guarantee, exercised by the integration
    /// tests).
    pub kill_schedule: Vec<(std::time::Duration, usize)>,
    /// Optional trace recorder, installed on the farm's tuple space so the
    /// run can be audited with the `plinda::check` protocol checkers.
    pub recorder: Option<plinda::Recorder>,
    /// Optional metrics registry, installed on the farm's tuple space.
    /// The farm folds per-worker accounting into it at teardown; snapshot
    /// it after the driver returns for the run's complete ledger.
    pub metrics: Option<plinda::MetricsRegistry>,
    /// Optional pre-connected tuple space — e.g. the result of
    /// [`plinda::TupleSpace::connect_unix`] to run the traversal's farm
    /// against an `fpdm-spaced` broker. `None` uses a fresh in-process
    /// space; the traversal code is identical either way.
    pub space: Option<Arc<plinda::TupleSpace>>,
    /// Optional worker task-prefetch depth, forwarded to
    /// [`plinda::FarmConfig::with_prefetch`]: how many tasks a worker takes
    /// per transaction. `None` keeps the farm default (1 in-process, 8 over
    /// a socket backend).
    pub prefetch: Option<usize>,
    /// Optional per-job tag appended to the farm program name
    /// (`"<name>.<tag>"`), namespacing the task/result/counter channels.
    /// Required when concurrent jobs of the *same* program share one
    /// space (e.g. two tenants both running seqmine over a warm broker):
    /// channel names are otherwise fixed per program, so untagged
    /// concurrent runs would cross-deliver tasks and results.
    pub job_tag: Option<String>,
}

impl ParallelConfig {
    /// Plain load-balanced configuration.
    pub fn load_balanced(workers: usize) -> Self {
        ParallelConfig {
            workers,
            strategy: WorkerStrategy::LoadBalanced,
            initial_task_level: 1,
            kill_schedule: Vec::new(),
            recorder: None,
            metrics: None,
            space: None,
            prefetch: None,
            job_tag: None,
        }
    }

    /// Plain optimistic configuration.
    pub fn optimistic(workers: usize) -> Self {
        ParallelConfig {
            strategy: WorkerStrategy::Optimistic,
            ..Self::load_balanced(workers)
        }
    }

    /// Schedule a kill of worker `index` after `delay`.
    pub fn kill_after(mut self, delay: std::time::Duration, index: usize) -> Self {
        self.kill_schedule.push((delay, index));
        self
    }

    /// Apply the adaptive-master rule of §4.3.2: with 6 or more workers,
    /// descend to level 2 before emitting tasks.
    pub fn adaptive(mut self) -> Self {
        self.initial_task_level = if self.workers >= 6 { 2 } else { 1 };
        self
    }

    /// Record the run's tuple-space trace into `rec` for offline protocol
    /// checking.
    pub fn with_recorder(mut self, rec: plinda::Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Meter the run into `reg`: live tuple-space/transaction metrics
    /// while running, per-worker accounting folded in at farm teardown.
    pub fn with_metrics(mut self, reg: plinda::MetricsRegistry) -> Self {
        self.metrics = Some(reg);
        self
    }

    /// Run the traversal over `space` (e.g. a socket-connected broker
    /// space) instead of a fresh in-process one.
    pub fn with_space(mut self, space: Arc<plinda::TupleSpace>) -> Self {
        self.space = Some(space);
        self
    }

    /// Workers take up to `n` tasks per transaction (batched withdrawal;
    /// one commit covers the whole batch).
    pub fn with_prefetch(mut self, n: usize) -> Self {
        self.prefetch = Some(n);
        self
    }

    /// Namespace this run's farm channels as `"<program>.<tag>"` — see
    /// [`ParallelConfig::job_tag`]. Mandatory for concurrent same-program
    /// jobs over a shared space; harmless (a longer channel name) on a
    /// private one.
    pub fn with_job_tag(mut self, tag: impl Into<String>) -> Self {
        self.job_tag = Some(tag.into());
        self
    }

    /// The farm program name for this run: `base` suffixed with the job
    /// tag, if one is set.
    pub fn farm_name(&self, base: &str) -> String {
        match &self.job_tag {
            Some(tag) => format!("{base}.{tag}"),
            None => base.to_owned(),
        }
    }

    /// The bag-of-tasks farm configuration of this run. Kills of
    /// out-of-range worker indices are dropped. Programs with addressed
    /// tasks switch the dispatch to [`plinda::Dispatch::PerWorker`]
    /// themselves.
    pub fn farm_config(&self) -> FarmConfig {
        assert!(self.workers >= 1, "need at least one worker");
        FarmConfig {
            kill_schedule: self
                .kill_schedule
                .iter()
                .copied()
                .filter(|&(_, index)| index < self.workers)
                .collect(),
            recorder: self.recorder.clone(),
            metrics: self.metrics.clone(),
            space: self.space.clone(),
            prefetch: self.prefetch.map(|n| n.max(1)),
            ..FarmConfig::bag(self.workers)
        }
    }

    /// Shut down `farm`, started as `name`, and assert that it drained its
    /// channels: anything left in the space at quiescence is a protocol
    /// leak. A tagged run metering into a registry it does not own — a
    /// service job on the service's shared space — also drops its
    /// `chan.<name>.*` keys from that registry, so a resident service's
    /// ledger does not grow by one set of channel keys per job.
    pub fn finish_farm<T: Payload + 'static, R: Payload + 'static>(
        &self,
        name: &str,
        farm: TaskFarm<T, R>,
    ) {
        let space = Arc::clone(farm.space());
        let report = farm.finish();
        assert!(
            report.leaked.is_empty(),
            "{name} farm leaked tuples: {:?}",
            report.leaked
        );
        if let (Some(_), None, Some(reg)) = (&self.job_tag, &self.metrics, space.metrics()) {
            reg.remove_prefix(&format!("chan.{name}."));
        }
    }
}

/// Task flag of every traversal task (the farm reserves only the poison
/// pill's).
const NORMAL: i64 = 0;

/// Which patterns of a level a level-synchronous traversal tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pruning {
    /// E-tree: every child of a good pattern.
    Parent,
    /// E-dag (Definition 2): only patterns whose immediate subpatterns are
    /// all good.
    Subpatterns,
}

impl Pruning {
    /// Does this rule test `p`, given every good pattern found so far?
    /// Immediate subpatterns sit one level up (or are the root, which is
    /// always good), so `good` holding earlier levels too changes nothing.
    pub(crate) fn admits<P: MiningProblem>(
        self,
        problem: &P,
        p: &P::Pattern,
        good: &BTreeMap<P::Pattern, f64>,
    ) -> bool {
        self == Pruning::Parent
            || problem
                .immediate_subpatterns(p)
                .iter()
                .all(|s| problem.pattern_len(s) == 0 || good.contains_key(s))
    }
}

/// The level-synchronous master: per level, drop the patterns `pruning`
/// rejects, emit the rest as one task wave (`send_all`, one deferred
/// burst), collect the wave's `(encoding, goodness)` reports in bulk
/// (`recv_upto`), and expand the good patterns' children into the next
/// level **in dispatch order** — report arrival order never leaks into
/// the next level, so schedules replay deterministically. Stops after
/// `max_levels` levels and returns the outcome with the untested
/// frontier below them (empty when the lattice ran out first).
///
/// There is no shared outstanding-work counter: the wave size is the
/// termination count, so workers never retire against a counter and the
/// master blocks only on its own wave's reports.
fn level_sync<P>(
    name: &str,
    problem: &Arc<P>,
    config: &ParallelConfig,
    pruning: Pruning,
    max_levels: usize,
) -> (MiningOutcome<P::Pattern>, Vec<P::Pattern>)
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    // Worker (Fig. 3.5): grade one candidate.
    let wp = Arc::clone(problem);
    let farm = TaskFarm::<Vec<u8>, (Vec<u8>, f64)>::start(
        name,
        config.farm_config(),
        move |scope, _flag, enc| {
            let g = wp.goodness(&wp.decode_pattern(&enc));
            scope.result(&(enc, g));
            Ok(())
        },
    );

    let mut outcome = MiningOutcome::new();
    let mut level = problem.children(&problem.root());
    for _ in 0..max_levels {
        level.retain(|p| pruning.admits(&**problem, p, &outcome.good));
        if level.is_empty() {
            break;
        }
        let order: Vec<Vec<u8>> = level.iter().map(|p| problem.encode_pattern(p)).collect();
        farm.send_all(NORMAL, &order);

        let mut grades: HashMap<Vec<u8>, f64> = HashMap::with_capacity(order.len());
        let mut pending = order.len();
        while pending > 0 {
            let reports = farm.recv_upto(pending);
            pending -= reports.len();
            grades.extend(reports);
        }
        outcome.tested += order.len() as u64;

        let mut next = Vec::new();
        for (p, enc) in level.into_iter().zip(&order) {
            let g = grades[enc];
            if problem.is_good(&p, g) {
                next.extend(problem.children(&p));
                outcome.good.insert(p, g);
            }
        }
        level = next;
    }

    config.finish_farm(name, farm);
    (outcome, level)
}

/// The counter-terminated load-balanced loop (Figs. 4.6/4.7): traverse
/// the E-tree below `frontier`, adding to `outcome`.
fn load_balanced<P>(
    name: &str,
    problem: &Arc<P>,
    config: &ParallelConfig,
    frontier: &[P::Pattern],
    outcome: &mut MiningOutcome<P::Pattern>,
) where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    // Fig. 4.7 worker: evaluate one node; expand in place if good.
    // Retiring the task against the shared outstanding-work counter
    // happens in the same transaction as consuming it and publishing its
    // children and report, so the counter reads zero exactly when every
    // report has committed.
    let wp = Arc::clone(problem);
    let farm = TaskFarm::<Vec<u8>, (Vec<u8>, f64, i64)>::start(
        name,
        config.farm_config(),
        move |scope, _flag, enc| {
            let p = wp.decode_pattern(&enc);
            let g = wp.goodness(&p);
            let good = wp.is_good(&p, g);
            let children = if good { wp.children(&p) } else { Vec::new() };
            for c in &children {
                scope.emit(NORMAL, &wp.encode_pattern(c));
            }
            scope.retire(children.len() as i64)?;
            scope.result(&(enc, g, i64::from(good)));
            Ok(())
        },
    );

    // Fig. 4.6 master: emit the initial tasks (one deferred burst), seed
    // the outstanding-work counter, block until the workers drive it to
    // zero (termination detection), then collect every report in bulk.
    let encoded: Vec<Vec<u8>> = frontier.iter().map(|p| problem.encode_pattern(p)).collect();
    farm.send_all(NORMAL, &encoded);
    farm.seed_counter(encoded.len() as i64);
    farm.await_quiescent();
    for (enc, g, good) in farm.drain() {
        outcome.tested += 1;
        if good == 1 {
            outcome.good.insert(problem.decode_pattern(&enc), g);
        }
    }
    config.finish_farm(name, farm);
}

/// PLED: the parallel E-dag traversal, level-synchronised per
/// Definition 2 (Figs. 3.4/3.5). The strategy and task-level fields of
/// `config` do not apply.
///
/// Equivalent (Theorem 2) to [`crate::edag::sequential_edt`]: same good
/// patterns, same tested-pattern set.
pub fn parallel_edt<P>(problem: Arc<P>, config: &ParallelConfig) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    let name = config.farm_name("pled");
    level_sync(&name, &problem, config, Pruning::Subpatterns, usize::MAX).0
}

/// Run a candidate-partitioned wave traversal of the E-tree under the
/// farm program name `name` (the farm port of the sequential miners —
/// seqmine, treemine, episodes). The strategy and task-level fields of
/// `config` do not apply.
///
/// This is the *candidate partitioning* of Gan et al.'s parallel
/// sequential-pattern-mining taxonomy: the master owns the lattice
/// frontier and emits each level's candidates as one task wave;
/// stateless workers each grade their share of the candidates against
/// the full database. Unlike PLED there is no subpattern-eligibility rule
/// (parent-only pruning, like PLET), and unlike PLET there is no
/// outstanding-work counter. Because every [`MiningProblem`] generates
/// each pattern exactly once from its unique parent, the tested set — and
/// therefore the whole [`MiningOutcome`] — is bit-identical to
/// [`crate::etree::sequential_ett`]'s.
pub fn parallel_wave<P>(
    name: &str,
    problem: Arc<P>,
    config: &ParallelConfig,
) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    let name = config.farm_name(name);
    level_sync(&name, &problem, config, Pruning::Parent, usize::MAX).0
}

/// PLET: the parallel E-tree traversal per `config` — the load-balanced
/// or optimistic strategy, after the master's adaptive preamble.
///
/// Equivalent (Theorem 3) to [`crate::etree::sequential_ett`] in its good
/// patterns (the set of *tested* patterns can differ between strategies;
/// `tested` reports the actual count).
pub fn parallel_ett<P>(problem: Arc<P>, config: &ParallelConfig) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    assert!(config.initial_task_level >= 1);

    // Master preamble shared by both strategies: traverse the first
    // `initial_task_level - 1` levels locally (the adaptive master of
    // §4.3.2), leaving the initial task frontier.
    let mut outcome = MiningOutcome::new();
    let mut frontier = problem.children(&problem.root());
    for _ in 1..config.initial_task_level {
        let mut next = Vec::new();
        for p in frontier {
            let g = problem.goodness(&p);
            outcome.tested += 1;
            if problem.is_good(&p, g) {
                next.extend(problem.children(&p));
                outcome.good.insert(p, g);
            }
        }
        frontier = next;
    }

    if config.strategy == WorkerStrategy::LoadBalanced {
        let name = config.farm_name("plet-lb");
        load_balanced(&name, &problem, config, &frontier, &mut outcome);
        return outcome;
    }

    // Fig. 4.5 worker: take one task, finish the whole subtree.
    let name = config.farm_name("plet-opt");
    let wp = Arc::clone(&problem);
    let farm = TaskFarm::<Vec<u8>, Vec<Value>>::start(
        &name,
        config.farm_config(),
        move |scope, _flag, enc| {
            let mut results: Vec<Value> = Vec::new();
            let mut stack = vec![wp.decode_pattern(&enc)];
            while let Some(p) = stack.pop() {
                let g = wp.goodness(&p);
                let good = wp.is_good(&p, g);
                if good {
                    stack.extend(wp.children(&p));
                }
                results.push(Value::List(vec![
                    Value::Bytes(wp.encode_pattern(&p)),
                    Value::Real(g),
                    Value::Int(i64::from(good)),
                ]));
            }
            scope.result(&results);
            Ok(())
        },
    );

    // Fig. 4.4 master: one subtree report per initial task.
    let encoded: Vec<Vec<u8>> = frontier.iter().map(|p| problem.encode_pattern(p)).collect();
    farm.send_all(NORMAL, &encoded);
    for _ in 0..encoded.len() {
        for entry in farm.recv() {
            let Value::List(fields) = entry else {
                unreachable!("sub entries are lists")
            };
            let (Value::Bytes(enc), Value::Real(g), Value::Int(good)) =
                (&fields[0], &fields[1], &fields[2])
            else {
                unreachable!("sub entry shape")
            };
            outcome.tested += 1;
            if *good == 1 {
                outcome.good.insert(problem.decode_pattern(enc), *g);
            }
        }
    }
    config.finish_farm(&name, farm);
    outcome
}

/// The "optimal PLinda implementation" of §3.3.4: PLED — full subpattern
/// pruning, while pruning pays the most — over levels
/// `1..=switch_level`, then a load-balanced PLET below them, where
/// synchronisation would cost more than the extra pruning saves. The two
/// phases run as two farms (`hybrid-pled`, `hybrid-plet`); the strategy
/// and task-level fields of `config` do not apply.
///
/// Theorem 4: produces exactly the good patterns of the sequential EDT.
pub fn parallel_hybrid<P>(
    problem: Arc<P>,
    config: &ParallelConfig,
    switch_level: usize,
) -> MiningOutcome<P::Pattern>
where
    P: MiningProblem + PatternCodec + Send + Sync + 'static,
{
    assert!(switch_level >= 1, "switch level starts at 1");
    let name = config.farm_name("hybrid-pled");
    let (mut outcome, frontier) =
        level_sync(&name, &problem, config, Pruning::Subpatterns, switch_level);
    // Phase 2 starts from the children of the last PLED level's good
    // patterns, which the subpattern rule already pruned.
    if !frontier.is_empty() {
        let name = config.farm_name("hybrid-plet");
        load_balanced(&name, &problem, config, &frontier, &mut outcome);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edag::sequential_edt;
    use crate::etree::sequential_ett;
    use crate::toy::{ToyItemsets, ToySeq};

    fn seq_problem() -> Arc<ToySeq> {
        Arc::new(ToySeq::new(
            vec!["FFRR", "MRRM", "MTRM", "ARRM", "FRRM"],
            2,
            usize::MAX,
        ))
    }

    fn itemset_problem() -> Arc<ToyItemsets> {
        Arc::new(ToyItemsets::new(
            vec![
                vec![1, 2, 3],
                vec![1, 2],
                vec![1, 3, 4],
                vec![2, 3],
                vec![1, 2, 3, 4],
                vec![2, 4],
            ],
            2,
        ))
    }

    #[test]
    fn theorem_2_pled_equals_edt() {
        let p = seq_problem();
        let seq = sequential_edt(&*p);
        let par = parallel_edt(Arc::clone(&p), &ParallelConfig::load_balanced(3));
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested, "PLED tests exactly the EDT set");
    }

    #[test]
    fn theorem_3_plet_load_balanced_equals_ett() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_ett(Arc::clone(&p), &ParallelConfig::load_balanced(4));
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested);
    }

    #[test]
    fn theorem_3_plet_optimistic_equals_ett() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_ett(Arc::clone(&p), &ParallelConfig::optimistic(4));
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested);
    }

    #[test]
    fn adaptive_master_same_results() {
        let p = seq_problem();
        let seq = sequential_ett(&*p);
        for workers in [2, 6] {
            let cfg = ParallelConfig::load_balanced(workers).adaptive();
            assert_eq!(cfg.initial_task_level, if workers >= 6 { 2 } else { 1 });
            let par = parallel_ett(Arc::clone(&p), &cfg);
            assert_eq!(seq.good, par.good, "workers={workers}");
        }
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_ett(Arc::clone(&p), &ParallelConfig::optimistic(1));
        assert_eq!(seq.good, par.good);
    }

    #[test]
    fn theorem_4_hybrid_equals_edt() {
        let p = itemset_problem();
        let seq = crate::edag::sequential_edt(&*p);
        for switch in [1, 2, 5] {
            let hybrid = parallel_hybrid(Arc::clone(&p), &ParallelConfig::load_balanced(3), switch);
            assert_eq!(seq.good, hybrid.good, "switch={switch}");
        }
        // Switching below the deepest level degenerates to pure PLED:
        // the tested sets then agree exactly as well.
        let hybrid = parallel_hybrid(Arc::clone(&p), &ParallelConfig::load_balanced(2), 64);
        assert_eq!(seq.good, hybrid.good);
        assert_eq!(seq.tested, hybrid.tested);
    }

    #[test]
    fn wave_equals_ett_on_both_toys() {
        let p = seq_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_wave(
            "wave-seq",
            Arc::clone(&p),
            &ParallelConfig::load_balanced(3),
        );
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested, "waves test exactly the ETT set");

        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_wave(
            "wave-items",
            Arc::clone(&p),
            &ParallelConfig::load_balanced(4),
        );
        assert_eq!(seq.good, par.good);
        assert_eq!(seq.tested, par.tested);
    }

    #[test]
    fn wave_survives_kills_and_prefetch() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        for prefetch in [1, 4] {
            let cfg = ParallelConfig::load_balanced(3)
                .kill_after(std::time::Duration::from_millis(1), 0)
                .kill_after(std::time::Duration::from_millis(2), 2)
                .with_prefetch(prefetch);
            let par = parallel_wave("wave-kill", Arc::clone(&p), &cfg);
            assert_eq!(seq.good, par.good, "prefetch={prefetch}");
            assert_eq!(seq.tested, par.tested);
        }
    }

    #[test]
    fn wave_single_worker_and_empty_problem() {
        let p = itemset_problem();
        let seq = sequential_ett(&*p);
        let par = parallel_wave(
            "wave-one",
            Arc::clone(&p),
            &ParallelConfig::load_balanced(1),
        );
        assert_eq!(seq.good, par.good);

        let empty = Arc::new(ToyItemsets::new(vec![], 1));
        let out = parallel_wave("wave-empty", empty, &ParallelConfig::load_balanced(2));
        assert!(out.is_empty());
    }

    #[test]
    fn wave_metered_ledger_is_consistent() {
        let p = seq_problem();
        let reg = plinda::MetricsRegistry::new();
        let cfg = ParallelConfig::load_balanced(3).with_metrics(reg.clone());
        let par = parallel_wave("wave-met", Arc::clone(&p), &cfg);
        assert_eq!(sequential_ett(&*p).good, par.good);
        let snap = reg.snapshot();
        assert_eq!(
            snap.sum_counters(|k| k.starts_with("farm.wave-met.worker.") && k.ends_with(".tasks")),
            par.tested,
            "every tested candidate is one committed task"
        );
        assert_eq!(snap.counter("farm.wave-met.leaked"), 0);
        let violations = plinda::metrics::check_snapshot(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn metered_run_ledger_is_consistent() {
        let p = itemset_problem();
        let reg = plinda::MetricsRegistry::new();
        let cfg = ParallelConfig::load_balanced(3).with_metrics(reg.clone());
        let par = parallel_ett(Arc::clone(&p), &cfg);
        assert_eq!(sequential_ett(&*p).good, par.good);
        let snap = reg.snapshot();
        assert_eq!(
            snap.sum_counters(|k| k.starts_with("farm.plet-lb.worker.") && k.ends_with(".tasks")),
            par.tested,
            "every tested pattern is one committed task"
        );
        assert_eq!(snap.counter("farm.plet-lb.leaked"), 0);
        let violations = plinda::metrics::check_snapshot(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn empty_problem_terminates() {
        let p = Arc::new(ToyItemsets::new(vec![], 1));
        let out = parallel_ett(Arc::clone(&p), &ParallelConfig::load_balanced(2));
        assert!(out.is_empty());
        let out = parallel_edt(p, &ParallelConfig::load_balanced(2));
        assert!(out.is_empty());
    }
}
