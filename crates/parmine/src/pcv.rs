//! Parallel NyuMiner-CV (§6.1, Figs. 6.1/6.2).
//!
//! The `V + 1` trees of a V-fold cross-validated run — one main tree plus
//! `V` auxiliary trees grown on the leave-one-fold-out learning sets —
//! are grown in exactly the same way on different data: textbook data
//! partitioning. The master emits one work tuple per auxiliary tree,
//! grows the main tree itself (it costs about as much as four auxiliary
//! trees, §6.1.1), broadcasts the α-midpoints of the main tree's pruning
//! sequence, and combines the per-fold error vectors into the CV estimate
//! that selects the final pruned tree.
//!
//! Coordination flows through the tuple space exactly as in the paper's
//! pseudo-code, with the master/worker plumbing supplied by
//! [`plinda::TaskFarm`] (fold tasks in, error vectors out) and the
//! midpoint broadcast by a typed [`Chan<Vec<f64>>`] that workers `rd`
//! without withdrawing. The trees themselves (large, pointer-rich) stay
//! in shared memory — in the original they lived in the workers' address
//! spaces and only the per-α error counts travelled as
//! `("alpha_list", i, αs)` tuples, which is what we reproduce.

use classify::data::Dataset;
use classify::prune::{ccp_sequence, select_for_alpha};
use classify::tree::DecisionTree;
use classify::{Classifier, ColumnarIndex, NyuConfig};
use fpdm_core::ParallelConfig;
use plinda::{Chan, TaskFarm};
use std::sync::Arc;

/// Result of a parallel cross-validated run.
pub struct ParallelCv {
    /// The selected pruned tree.
    pub tree: DecisionTree,
    /// The selected complexity parameter.
    pub alpha: f64,
    /// CV error estimate per main-sequence entry.
    pub cv_errors: Vec<(f64, f64)>,
}

/// Grow + prune with `v`-fold CV, the `v` auxiliary trees built by the
/// workers of `parallel` while the master grows the main tree.
/// Matches [`classify::prune::grow_with_cv_pruning`] exactly (same seeds,
/// same folds, same selection rule).
pub fn parallel_nyuminer_cv(
    data: Arc<Dataset>,
    rows: Arc<Vec<usize>>,
    config: &NyuConfig,
    v: usize,
    parallel: &ParallelConfig,
    seed: u64,
) -> ParallelCv {
    assert!(v >= 2);
    let folds: Arc<Vec<Vec<usize>>> = Arc::new(data.folds(&rows, v, seed));
    // One columnar ingest, shared by the main tree and every fold worker.
    let index: Arc<ColumnarIndex> = Arc::new(ColumnarIndex::build(&data));

    let name = parallel.farm_name("pcv");
    let mids_chan = Chan::<Vec<f64>>::new(format!("{name}.mids"));

    // Worker (Fig. 6.2): grow the aux tree of one fold, read the broadcast
    // midpoints, report the fold's per-α error vector.
    let w_data = Arc::clone(&data);
    let w_folds = Arc::clone(&folds);
    let w_index = Arc::clone(&index);
    let w_config = config.clone();
    let w_mids = mids_chan.clone();
    let farm = TaskFarm::<i64, (i64, Vec<u32>)>::start(
        &name,
        parallel.farm_config(),
        move |scope, _flag, fold| {
            let i = fold as usize;
            // Learning set V(i) = all folds but fold i.
            let train: Vec<usize> = w_folds
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            let rule = w_config.rule();
            let aux = DecisionTree::grow_indexed(&w_data, &w_index, &train, &rule, &w_config.grow);
            let seq = ccp_sequence(&aux);
            // Broadcast read: every worker reads the same midpoints.
            let mids = w_mids.read_txn(scope.proc())?;
            let errs: Vec<u32> = mids
                .iter()
                .map(|&alpha| {
                    let pruned = select_for_alpha(&seq, alpha);
                    w_folds[i]
                        .iter()
                        .filter(|&&r| pruned.predict(&w_data, r) != w_data.class(r))
                        .count() as u32
                })
                .collect();
            scope.result(&(fold, errs));
            Ok(())
        },
    );

    // Emit fold tasks, then grow the main tree concurrently.
    for i in 0..v {
        farm.send(0, &(i as i64));
    }
    let main = DecisionTree::grow_indexed(&data, &index, &rows, &config.rule(), &config.grow);
    let seq = ccp_sequence(&main);

    // Midpoints α'_k of the main sequence (same formula as the sequential
    // implementation).
    let mids: Vec<f64> = (0..seq.len())
        .map(|k| {
            if k + 1 < seq.len() {
                let (a, next) = (seq[k].0, seq[k + 1].0);
                if a > 0.0 {
                    (a * next).sqrt()
                } else {
                    next / 2.0
                }
            } else {
                f64::INFINITY
            }
        })
        .collect();
    mids_chan.send(farm.space(), &mids);

    // Combine per-fold error vectors.
    let mut totals = vec![0u64; seq.len()];
    for _ in 0..v {
        let (_fold, errs) = farm.recv();
        for (k, e) in errs.iter().enumerate() {
            totals[k] += *e as u64;
        }
    }
    // Withdraw the midpoint broadcast: every fold has reported, so no
    // worker will read it again. Leaving it would leak one tuple per run
    // (caught by the leak checker before this existed).
    mids_chan
        .try_recv(farm.space())
        .expect("midpoint broadcast still in space");
    parallel.finish_farm(&name, farm);

    let n = rows.len() as f64;
    let cv_errors: Vec<(f64, f64)> = seq
        .iter()
        .zip(&totals)
        .map(|((a, _), &e)| (*a, e as f64 / n))
        .collect();
    let mut best_k = 0;
    for k in 1..cv_errors.len() {
        if cv_errors[k].1 <= cv_errors[best_k].1 + 1e-12 {
            best_k = k;
        }
    }
    ParallelCv {
        alpha: seq[best_k].0,
        tree: seq[best_k].1.clone(),
        cv_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classify::prune::grow_with_cv_pruning;
    use classify::tree::GrowRule;
    use datagen::benchmark;

    #[test]
    fn parallel_cv_matches_sequential_selection() {
        let data = Arc::new(benchmark("diabetes", 3));
        let rows = Arc::new(data.all_rows());
        let cfg = NyuConfig::default();
        let seed = 17;
        let v = 4;

        let seq_result = grow_with_cv_pruning(
            &data,
            &rows,
            &GrowRule::NyuMiner {
                max_branches: cfg.max_branches,
                impurity: cfg.impurity.as_dyn(),
            },
            &cfg.grow,
            v,
            seed,
        );
        let par_result = parallel_nyuminer_cv(
            Arc::clone(&data),
            Arc::clone(&rows),
            &cfg,
            v,
            &ParallelConfig::load_balanced(2),
            seed,
        );

        assert_eq!(par_result.alpha, seq_result.alpha);
        assert_eq!(par_result.tree.leaves(), seq_result.tree.leaves());
        assert_eq!(par_result.cv_errors.len(), seq_result.cv_errors.len());
        for (a, b) in par_result.cv_errors.iter().zip(&seq_result.cv_errors) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let data = Arc::new(benchmark("vote", 5));
        let rows = Arc::new(data.all_rows());
        let cfg = NyuConfig::default();
        let run = |workers| {
            let parallel = ParallelConfig::load_balanced(workers);
            parallel_nyuminer_cv(Arc::clone(&data), Arc::clone(&rows), &cfg, 4, &parallel, 9)
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.tree.leaves(), b.tree.leaves());
    }

    #[test]
    fn parallel_cv_survives_worker_kills() {
        let data = Arc::new(benchmark("vote", 5));
        let rows = Arc::new(data.all_rows());
        let cfg = NyuConfig::default();
        let seq = grow_with_cv_pruning(&data, &rows, &cfg.rule(), &cfg.grow, 4, 9);
        let reg = plinda::MetricsRegistry::new();
        let parallel = ParallelConfig::load_balanced(2)
            .kill_after(std::time::Duration::ZERO, 0)
            .with_metrics(reg.clone());
        let par = parallel_nyuminer_cv(Arc::clone(&data), Arc::clone(&rows), &cfg, 4, &parallel, 9);
        assert_eq!(par.alpha, seq.alpha);
        assert_eq!(par.tree, seq.tree);
        let respawns = reg
            .snapshot()
            .sum_counters(|k| k.starts_with("farm.pcv.worker.") && k.ends_with(".respawns"));
        assert!(respawns >= 1, "the kill landed");
    }
}
