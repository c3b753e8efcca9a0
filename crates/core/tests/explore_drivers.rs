//! The real parallel drivers — PLED, the wave, PLET (load-balanced and
//! optimistic) and the hybrid — under the interleaving explorer: every
//! run schedules the drivers' own master and worker threads over a
//! scheduled space, kills a worker at every commit boundary, passes the
//! trace checkers, and returns exactly the sequential traversal's outcome.

use fpdm_core::prelude::*;
use fpdm_core::MiningOutcome;
use plinda::check::{explore, ExploreConfig, ExploreReport};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

fn toy_seq() -> Arc<ToySeq> {
    Arc::new(ToySeq::new(vec!["FFRR", "MRRM", "MTRM"], 2, 3))
}

fn toy_itemsets() -> Arc<ToyItemsets> {
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

/// Level sizes of the sequential traversal whose good set is `good`:
/// level 1 is the root's children that `admit` keeps, each next level the
/// kept children of the previous level's good patterns.
fn level_sizes<P: MiningProblem>(
    p: &P,
    good: &BTreeMap<P::Pattern, f64>,
    admit: impl Fn(&P::Pattern) -> bool,
) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut level: Vec<P::Pattern> = p.children(&p.root()).into_iter().filter(&admit).collect();
    while !level.is_empty() {
        sizes.push(level.len());
        level = level
            .iter()
            .filter(|q| good.contains_key(*q))
            .flat_map(|q| p.children(q))
            .filter(&admit)
            .collect();
    }
    sizes
}

/// The E-dag rule of Definition 2: every immediate subpattern is good.
fn edag_admits<'a, P: MiningProblem>(
    p: &'a P,
    good: &'a BTreeMap<P::Pattern, f64>,
) -> impl Fn(&P::Pattern) -> bool + 'a {
    move |q| {
        p.immediate_subpatterns(q)
            .iter()
            .all(|s| p.pattern_len(s) == 0 || good.contains_key(s))
    }
}

/// Tasks of a level-synchronous run over levels of `sizes`: one per
/// chunk, at most four per worker per level and one candidate at least.
fn chunks(sizes: &[usize], workers: usize) -> usize {
    sizes.iter().map(|&len| len.min(4 * workers)).sum()
}

/// Worker commits of a level-synchronous run: one per chunk plus one
/// poison pill per worker (the master commits nothing).
fn chunk_commits(sizes: &[usize], workers: usize) -> usize {
    chunks(sizes, workers) + workers
}

/// Explore `driver` under `base` (with the run's scheduled space) and
/// assert every schedule clean and every kill point fired.
fn explore_driver<R: PartialEq + Debug>(
    base: ParallelConfig,
    random_schedules: usize,
    seeds_per_kill: usize,
    driver: impl Fn(&ParallelConfig) -> R,
) -> ExploreReport<R> {
    let mut cfg = ExploreConfig::new();
    cfg.random_schedules = random_schedules;
    cfg.seeds_per_kill = seeds_per_kill;
    let report = explore(&cfg, |space| driver(&base.clone().with_space(space)));
    assert!(
        report.is_clean(),
        "{} of {} runs failed; first: {:#?}",
        report.failures.len(),
        report.runs,
        report.failures.first()
    );
    assert!(!report.kill_points.is_empty());
    for (kp, fired) in &report.kills_fired {
        assert!(*fired > 0, "kill at commit {} never fired", kp.commit);
    }
    report
}

#[test]
fn toy_seq_wave_survives_every_commit_boundary_kill() {
    let p = toy_seq();
    let seq = sequential_ett(&*p);
    let report = explore_driver(ParallelConfig::load_balanced(2), 10, 3, |cfg| {
        parallel_wave("wave", Arc::clone(&p), cfg)
    });
    assert_eq!(report.reference.as_ref(), Some(&seq));
    // One kill point per worker commit: every chunk plus one pill per
    // worker.
    let sizes = level_sizes(&*p, &seq.good, |_| true);
    assert_eq!(sizes.iter().sum::<usize>() as u64, seq.tested);
    assert_eq!(report.kill_points.len(), chunk_commits(&sizes, 2));
}

#[test]
fn wave_ledger_counts_one_committed_task_per_chunk() {
    let p = Arc::new(ToySeq::new(
        vec!["FFRR", "MRRM", "MTRM", "ARRM", "FRRM"],
        2,
        usize::MAX,
    ));
    let seq = sequential_ett(&*p);
    let sizes = level_sizes(&*p, &seq.good, |_| true);
    assert_eq!(sizes.iter().sum::<usize>() as u64, seq.tested);
    assert!(
        chunks(&sizes, 3) < sizes.iter().sum::<usize>(),
        "some level is chunked: {sizes:?}"
    );
    let reg = plinda::MetricsRegistry::new();
    let cfg = ParallelConfig::load_balanced(3).with_metrics(reg.clone());
    let par = parallel_wave("wave-met", Arc::clone(&p), &cfg);
    assert_eq!(par.tested, seq.tested);
    assert_eq!(
        reg.snapshot()
            .sum_counters(|k| k.starts_with("farm.wave-met.worker.") && k.ends_with(".tasks")),
        chunks(&sizes, 3) as u64,
        "every chunk of every level is one committed task"
    );
}

#[test]
fn toy_seq_wave_with_one_worker_commits_once_per_chunk() {
    let p = toy_seq();
    let seq = sequential_ett(&*p);
    let sizes = level_sizes(&*p, &seq.good, |_| true);
    assert!(
        sizes.iter().any(|&len| len > 4),
        "some level must hold more candidates than one worker's 4 chunks: {sizes:?}"
    );
    let report = explore_driver(ParallelConfig::load_balanced(1), 4, 2, |cfg| {
        parallel_wave("wave", Arc::clone(&p), cfg)
    });
    assert_eq!(report.reference.as_ref(), Some(&seq));
    assert_eq!(report.kill_points.len(), chunk_commits(&sizes, 1));
}

#[test]
fn toy_itemsets_wave_matches_sequential() {
    let p = toy_itemsets();
    let report = explore_driver(ParallelConfig::load_balanced(3), 8, 2, |cfg| {
        parallel_wave("wave", Arc::clone(&p), cfg)
    });
    assert_eq!(report.reference, Some(sequential_ett(&*p)));
}

#[test]
fn toy_itemsets_pled_survives_every_commit_boundary_kill() {
    let p = toy_itemsets();
    let seq = sequential_edt(&*p);
    assert!(
        seq.tested < sequential_ett(&*p).tested,
        "the E-dag rule must prune something here"
    );
    let report = explore_driver(ParallelConfig::load_balanced(2), 8, 2, |cfg| {
        parallel_edt(Arc::clone(&p), cfg)
    });
    // Good set and tested count both equal the sequential EDT's, and
    // every chunk of every level is one kill point.
    assert_eq!(report.reference.as_ref(), Some(&seq));
    let sizes = level_sizes(&*p, &seq.good, edag_admits(&*p, &seq.good));
    assert_eq!(sizes.iter().sum::<usize>() as u64, seq.tested);
    assert_eq!(report.kill_points.len(), chunk_commits(&sizes, 2));
}

#[test]
fn empty_problem_publishes_nothing() {
    let p = Arc::new(ToyItemsets::new(vec![], 1));
    let report = explore_driver(ParallelConfig::load_balanced(2), 4, 2, |cfg| {
        parallel_wave("wave", Arc::clone(&p), cfg)
    });
    assert_eq!(report.reference, Some(MiningOutcome::new()));
    assert!(report.reference_final.is_empty(), "the farm drains");
    // Only the two poison pills commit.
    assert_eq!(report.kill_points.len(), 2);
}

#[test]
fn plet_load_balanced_survives_every_commit_boundary_kill() {
    let p = toy_itemsets();
    let seq = sequential_ett(&*p);
    let report = explore_driver(ParallelConfig::load_balanced(2), 8, 2, |cfg| {
        parallel_ett(Arc::clone(&p), cfg)
    });
    // Workers expand good nodes themselves, yet test exactly ETT's set.
    assert_eq!(report.reference.as_ref(), Some(&seq));
    assert_eq!(report.kill_points.len() as u64, seq.tested + 2);
}

#[test]
fn plet_optimistic_survives_every_commit_boundary_kill() {
    let p = toy_itemsets();
    let report = explore_driver(ParallelConfig::optimistic(2), 8, 2, |cfg| {
        parallel_ett(Arc::clone(&p), cfg)
    });
    assert_eq!(report.reference, Some(sequential_ett(&*p)));
    // One commit per initial subtree task, plus the pills.
    let tasks = p.children(&p.root()).len();
    assert_eq!(report.kill_points.len(), tasks + 2);
}

#[test]
fn hybrid_survives_every_commit_boundary_kill() {
    let p = toy_itemsets();
    let report = explore_driver(ParallelConfig::load_balanced(2), 8, 2, |cfg| {
        parallel_hybrid(Arc::clone(&p), cfg, 2)
    });
    // Theorem 4: the good set of the sequential EDT.
    let reference = report.reference.expect("clean reference run");
    assert_eq!(reference.good, sequential_edt(&*p).good);
}
