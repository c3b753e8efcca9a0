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
//! * a **level-synchronous loop** over a grade-only worker: cut one level
//!   into at most [`CHUNKS_PER_WORKER`] chunks per worker
//!   ([`wave_chunks`]), dispatch them as one deferred burst, collect the
//!   chunks' grade vectors in bulk, place them by chunk index and expand
//!   the good patterns in dispatch order. [`parallel_wave`] runs it with
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
use std::collections::BTreeMap;
use std::ops::Range;
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
    /// a socket backend). In the level-synchronous loop (the wave, PLED,
    /// the hybrid's first phase) a task is a chunk of up to
    /// `ceil(len / (CHUNKS_PER_WORKER · workers))` candidates
    /// ([`wave_chunks`]), so the depth counts chunks, not candidates.
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
enum Pruning {
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
    fn admits<P: MiningProblem>(
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

/// Chunks per worker in one level of the level-synchronous loop: enough
/// that a slow chunk leaves the other workers something to take, few
/// enough that the master's per-task cost (a tuple out, a report in, a
/// worker transaction) stays a small share of the level.
pub const CHUNKS_PER_WORKER: usize = 4;

/// The chunks the level-synchronous loop cuts a level of `len` candidates
/// into for `workers` workers: `min(len, CHUNKS_PER_WORKER · workers)`
/// contiguous ranges in dispatch order, whose sizes differ by at most one
/// (the longer ones first), so none is longer than
/// `ceil(len / (CHUNKS_PER_WORKER · workers))`.
///
/// The grain is a function of the level size and the worker count alone,
/// never of measured candidate cost: task boundaries, and with them the
/// commit boundaries a kill can hit, are the same on every run.
pub fn wave_chunks(len: usize, workers: usize) -> Vec<Range<usize>> {
    let n = len.min(CHUNKS_PER_WORKER * workers.max(1));
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = len / n + usize::from(i < len % n);
        chunks.push(start..start + size);
        start += size;
    }
    chunks
}

/// Pack encodings into one field: each is a little-endian `u32` length
/// followed by its bytes.
fn pack<E: AsRef<[u8]>>(encodings: impl IntoIterator<Item = E>) -> Vec<u8> {
    let mut out = Vec::new();
    for enc in encodings {
        let enc = enc.as_ref();
        let len = u32::try_from(enc.len()).expect("pattern encoding exceeds 4 GiB");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(enc);
    }
    out
}

/// The encodings [`pack`] packed into `packed`, in order.
fn unpack(mut packed: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (len, rest) = packed.split_first_chunk::<4>()?;
        let (enc, rest) = rest.split_at(u32::from_le_bytes(*len) as usize);
        packed = rest;
        Some(enc)
    })
}

/// A level's grades in dispatch order, from its `chunks` chunks'
/// `(chunk index, grades)` replies in whatever order they arrived.
fn grades_in_order(chunks: usize, replies: Vec<(i64, Vec<f64>)>) -> Vec<f64> {
    let mut slots: Vec<Option<Vec<f64>>> = vec![None; chunks];
    for (index, grades) in replies {
        let slot = &mut slots[index as usize];
        assert!(slot.is_none(), "chunk {index} reported twice");
        *slot = Some(grades);
    }
    slots
        .into_iter()
        .enumerate()
        .flat_map(|(index, grades)| {
            grades.unwrap_or_else(|| panic!("chunk {index} never reported"))
        })
        .collect()
}

/// The level-synchronous master: per level, drop the patterns `pruning`
/// rejects, cut the rest into [`wave_chunks`], emit one task per chunk —
/// `(chunk index, the candidates' encodings packed into one field)` — as
/// one deferred burst (`send_all`), collect the chunks'
/// `(chunk index, grades)` reports in bulk (`recv_upto`), slot them by
/// chunk index, and expand the good patterns' children into the next
/// level **in dispatch order** — report arrival order never leaks into
/// the next level, so schedules replay deterministically. Stops after
/// `max_levels` levels and returns the outcome with the untested
/// frontier below them (empty when the lattice ran out first).
///
/// There is no shared outstanding-work counter: the chunk count is the
/// termination count, so workers never retire against a counter and the
/// master blocks only on its own level's reports.
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
    // Worker (Fig. 3.5): grade one chunk, in order.
    let wp = Arc::clone(problem);
    let farm = TaskFarm::<(i64, Vec<u8>), (i64, Vec<f64>)>::start(
        name,
        config.farm_config(),
        move |scope, _flag, (index, packed)| {
            let grades = unpack(&packed)
                .map(|enc| wp.goodness(&wp.decode_pattern(enc)))
                .collect();
            scope.result(&(index, grades));
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
        let tasks: Vec<(i64, Vec<u8>)> = wave_chunks(level.len(), config.workers)
            .into_iter()
            .enumerate()
            .map(|(index, range)| {
                let packed = pack(level[range].iter().map(|p| problem.encode_pattern(p)));
                (index as i64, packed)
            })
            .collect();
        farm.send_all(NORMAL, &tasks);

        let mut replies = Vec::with_capacity(tasks.len());
        while replies.len() < tasks.len() {
            replies.extend(farm.recv_upto(tasks.len() - replies.len()));
        }
        let grades = grades_in_order(tasks.len(), replies);
        assert_eq!(grades.len(), level.len(), "one grade per candidate");
        outcome.tested += level.len() as u64;

        let mut next = Vec::new();
        for (p, g) in level.into_iter().zip(grades) {
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
/// frontier and emits each level's candidates as one task wave of at
/// most [`CHUNKS_PER_WORKER`] chunks per worker ([`wave_chunks`]), each
/// task a contiguous run of candidates; stateless workers grade a
/// chunk's candidates in order against the full database and reply with
/// one grade vector per chunk. Unlike PLED there is no
/// subpattern-eligibility rule (parent-only pruning, like PLET), and
/// unlike PLET there is no outstanding-work counter. Because every
/// [`MiningProblem`] generates each pattern exactly once from its unique
/// parent, and the master expands in dispatch order, the tested set — and
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

    /// [`ToyItemsets`] with a `goodness` that panics on one pattern.
    struct PanicsOn(ToyItemsets, Vec<u32>);

    impl MiningProblem for PanicsOn {
        type Pattern = Vec<u32>;
        fn root(&self) -> Vec<u32> {
            self.0.root()
        }
        fn pattern_len(&self, p: &Vec<u32>) -> usize {
            self.0.pattern_len(p)
        }
        fn children(&self, p: &Vec<u32>) -> Vec<Vec<u32>> {
            self.0.children(p)
        }
        fn immediate_subpatterns(&self, p: &Vec<u32>) -> Vec<Vec<u32>> {
            self.0.immediate_subpatterns(p)
        }
        fn goodness(&self, p: &Vec<u32>) -> f64 {
            assert_ne!(*p, self.1, "goodness panics on {p:?}");
            self.0.goodness(p)
        }
        fn is_good(&self, p: &Vec<u32>, goodness: f64) -> bool {
            self.0.is_good(p, goodness)
        }
    }

    impl PatternCodec for PanicsOn {
        fn encode_pattern(&self, p: &Vec<u32>) -> Vec<u8> {
            self.0.encode_pattern(p)
        }
        fn decode_pattern(&self, bytes: &[u8]) -> Vec<u32> {
            self.0.decode_pattern(bytes)
        }
    }

    #[test]
    fn a_worker_panic_fails_the_wave_instead_of_hanging_it() {
        let p = Arc::new(PanicsOn((*itemset_problem()).clone(), vec![1, 3]));
        let (tx, rx) = std::sync::mpsc::channel();
        // On a helper thread, so a hang fails this test, not the suite.
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_wave("wave-panic", p, &ParallelConfig::load_balanced(3))
            }));
            let message = run.err().map(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "<non-string payload>".into())
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the wave hung after a worker panic")
            .expect("the wave returned although a worker panicked");
        assert!(message.contains("goodness panics on [1, 3]"), "{message}");
    }

    #[test]
    fn wave_ledger_is_consistent() {
        let p = seq_problem();
        let reg = plinda::MetricsRegistry::new();
        let cfg = ParallelConfig::load_balanced(3).with_metrics(reg.clone());
        let par = parallel_wave("wave-met", Arc::clone(&p), &cfg);
        assert_eq!(sequential_ett(&*p).good, par.good);
        // The committed-task count (one per chunk) is checked against the
        // sequential traversal's level sizes in tests/explore_drivers.rs.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("farm.wave-met.leaked"), 0);
        let violations = plinda::metrics::check_snapshot(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_level_shorter_than_the_grain_is_one_candidate_per_chunk() {
        assert_eq!(wave_chunks(5, 2), vec![0..1, 1..2, 2..3, 3..4, 4..5]);
        assert_eq!(wave_chunks(1, 8), vec![0..1]);
        assert_eq!(wave_chunks(0, 3), Vec::<Range<usize>>::new());
    }

    #[test]
    fn one_worker_gets_four_chunks() {
        assert_eq!(wave_chunks(8, 1), vec![0..2, 2..4, 4..6, 6..8]);
        assert_eq!(wave_chunks(4, 1), vec![0..1, 1..2, 2..3, 3..4]);
    }

    #[test]
    fn an_uneven_split_puts_the_longer_chunks_first() {
        // 30 candidates, 2 workers: 8 chunks, 30 = 6·4 + 2·3.
        let chunks = wave_chunks(30, 2);
        assert_eq!(chunks.len(), 8);
        let sizes: Vec<usize> = chunks.iter().map(ExactSizeIterator::len).collect();
        assert_eq!(sizes, vec![4, 4, 4, 4, 4, 4, 3, 3]);
        // Contiguous, in order, covering every candidate once, and never
        // longer than ceil(len / (4 · workers)).
        assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!((chunks[0].start, chunks[7].end), (0, 30));
        for (len, workers) in [(30, 2), (461, 3), (97, 8), (13, 1)] {
            let chunks = wave_chunks(len, workers);
            let grain = len.div_ceil(CHUNKS_PER_WORKER * workers);
            assert_eq!(chunks.len(), len.min(CHUNKS_PER_WORKER * workers));
            assert_eq!(
                chunks.iter().map(ExactSizeIterator::len).sum::<usize>(),
                len
            );
            assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= grain));
        }
    }

    #[test]
    fn packed_encodings_unpack_in_order() {
        let encodings: [&[u8]; 4] = [b"FR", b"", b"MRRM", &[0, 255, 7]];
        let packed = pack(encodings);
        assert_eq!(unpack(&packed).collect::<Vec<_>>(), encodings);
        assert_eq!(unpack(&pack::<&[u8]>([])).count(), 0);
    }

    #[test]
    fn replies_in_reverse_chunk_order_grade_in_dispatch_order() {
        let replies = vec![(2, vec![5.0]), (1, vec![3.0, 4.0]), (0, vec![1.0, 2.0])];
        assert_eq!(grades_in_order(3, replies), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "chunk 1 never reported")]
    fn a_missing_chunk_is_caught() {
        grades_in_order(2, vec![(0, vec![1.0])]);
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
