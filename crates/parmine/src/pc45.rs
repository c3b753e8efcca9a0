//! Parallel C4.5 (§6.2.1, Figs. 6.5/6.6) and Parallel NyuMiner-RS
//! (§6.2.2, Figs. 6.7/6.8): data parallelism in the windowing / multiple
//! incremental sampling techniques.
//!
//! Each trial grows a tree from a differently-seeded random initial
//! sample — trials are embarrassingly parallel tasks farmed out through
//! [`plinda::TaskFarm`] (trial-index tasks in, `(trial, score)`
//! summaries out); the grown trees themselves stay in shared memory, just
//! as the original workers kept them in their own address spaces and
//! published only summary tuples.

use classify::c45::{grow_windowed, C45Config};
use classify::data::Dataset;
use classify::nyuminer::{
    extract_rules, grow_incremental, reevaluate_rules, NyuConfig, NyuMinerRS, RuleList,
};
use classify::tree::DecisionTree;
use classify::Classifier;
use fpdm_core::ParallelConfig;
use parking_lot::Mutex;
use plinda::TaskFarm;
use std::sync::Arc;

/// Grow one tree per trial index `0..trials` on the farm program `name`
/// and return them in trial order, each with the score `grow` gave it on
/// the worker. Every trial grows over the dataset's one presort
/// ([`Dataset::index`]).
fn farm_trials<F>(
    name: &str,
    data: &Arc<Dataset>,
    rows: &Arc<Vec<usize>>,
    trials: usize,
    parallel: &ParallelConfig,
    grow: F,
) -> Vec<(DecisionTree, f64)>
where
    F: Fn(&Dataset, &[usize], u64) -> (DecisionTree, f64) + Send + Sync + 'static,
{
    assert!(trials >= 1);
    let grown: Arc<Mutex<Vec<Option<DecisionTree>>>> =
        Arc::new(Mutex::new((0..trials).map(|_| None).collect()));
    let (w_data, w_rows, w_grown) = (Arc::clone(data), Arc::clone(rows), Arc::clone(&grown));
    let name = parallel.farm_name(name);
    let farm = TaskFarm::<i64, (i64, f64)>::start(
        &name,
        parallel.farm_config(),
        move |scope, _flag, i| {
            let (tree, score) = grow(&w_data, &w_rows, i as u64);
            w_grown.lock()[i as usize] = Some(tree);
            scope.result(&(i, score));
            Ok(())
        },
    );

    farm.send_all(0, &(0..trials as i64).collect::<Vec<_>>());
    let mut scores = vec![0.0; trials];
    for _ in 0..trials {
        let (i, score) = farm.recv();
        scores[i as usize] = score;
    }
    parallel.finish_farm(&name, farm);
    let trees = std::mem::take(&mut *grown.lock());
    trees
        .into_iter()
        .map(|t| t.expect("every trial reported"))
        .zip(scores)
        .collect()
}

/// Run `trials` windowed C4.5 trials on the workers of `parallel` and
/// return the tree most accurate on the full training rows — the
/// parallel form of [`classify::c45::C45::fit_trials`], bit-identical for
/// the same `seed`.
pub fn parallel_c45_trials(
    data: Arc<Dataset>,
    rows: Arc<Vec<usize>>,
    config: &C45Config,
    trials: usize,
    parallel: &ParallelConfig,
    seed: u64,
) -> DecisionTree {
    let config = config.clone();
    let grown = farm_trials(
        "pc45",
        &data,
        &rows,
        trials,
        parallel,
        move |data, rows, i| {
            let tree = grow_windowed(data, rows, &config, seed.wrapping_add(i));
            let acc = tree.accuracy(data, rows);
            (tree, acc)
        },
    );
    // The first most accurate trial, as in the sequential fit.
    grown
        .into_iter()
        .reduce(|best, t| if t.1 > best.1 { t } else { best })
        .expect("at least one trial")
        .0
}

/// Run `trials` incremental-sampling trees on the workers of `parallel`
/// and pool their rules — the parallel form of
/// [`classify::nyuminer::NyuMinerRS::fit`], identical for the same seed.
#[allow(clippy::too_many_arguments)]
pub fn parallel_nyuminer_rs(
    data: Arc<Dataset>,
    rows: Arc<Vec<usize>>,
    config: &NyuConfig,
    trials: usize,
    cmin: f64,
    smin: f64,
    parallel: &ParallelConfig,
    seed: u64,
) -> NyuMinerRS {
    let config = config.clone();
    let grown = farm_trials(
        "prs",
        &data,
        &rows,
        trials,
        parallel,
        move |data, rows, i| {
            // Same per-trial seed schedule as the sequential fit.
            let seed = seed.wrapping_add(i * 7919);
            (grow_incremental(data, rows, &config, seed), 0.0)
        },
    );
    let trees: Vec<DecisionTree> = grown.into_iter().map(|(tree, _)| tree).collect();

    let mut candidates = Vec::new();
    for tree in &trees {
        candidates.extend(extract_rules(tree, rows.len()));
    }
    reevaluate_rules(&data, &rows, &mut candidates);
    let (default_class, _) = data.plurality(&rows);
    NyuMinerRS {
        rules: RuleList::select(candidates, cmin, smin, default_class),
        trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classify::c45::C45;
    use classify::nyuminer::NyuMinerRS as SeqRS;
    use datagen::benchmark;
    use plinda::MetricsRegistry;
    use std::time::Duration;

    /// Sum of `farm.<name>.worker.*.respawns` in `reg`: the kills that
    /// landed.
    fn respawns(reg: &MetricsRegistry, name: &str) -> u64 {
        let prefix = format!("farm.{name}.worker.");
        reg.snapshot()
            .sum_counters(|k| k.starts_with(&prefix) && k.ends_with(".respawns"))
    }

    #[test]
    fn parallel_c45_matches_sequential_trials() {
        let data = Arc::new(benchmark("vote", 2));
        let rows = Arc::new(data.all_rows());
        let cfg = C45Config::default();
        let seq = C45::fit_trials(&data, &rows, &cfg, 4, 100);
        let par = parallel_c45_trials(
            Arc::clone(&data),
            Arc::clone(&rows),
            &cfg,
            4,
            &ParallelConfig::load_balanced(3),
            100,
        );
        // Same windows, same candidate trees: equal training accuracy.
        assert!((seq.tree.accuracy(&data, &rows) - par.accuracy(&data, &rows)).abs() < 1e-12);
    }

    #[test]
    fn parallel_c45_survives_worker_kills() {
        let data = Arc::new(benchmark("vote", 2));
        let rows = Arc::new(data.all_rows());
        let cfg = C45Config::default();
        let seq = C45::fit_trials(&data, &rows, &cfg, 4, 100);
        let reg = MetricsRegistry::new();
        let parallel = ParallelConfig::load_balanced(2)
            .kill_after(Duration::ZERO, 0)
            .with_metrics(reg.clone());
        let par = parallel_c45_trials(
            Arc::clone(&data),
            Arc::clone(&rows),
            &cfg,
            4,
            &parallel,
            100,
        );
        assert_eq!(seq.tree, par);
        assert!(respawns(&reg, "pc45") >= 1, "the kill landed");
    }

    #[test]
    fn parallel_rs_matches_sequential_rules() {
        let data = Arc::new(benchmark("diabetes", 4));
        let rows = Arc::new(data.all_rows());
        let cfg = NyuConfig::default();
        let seq = SeqRS::fit(&data, &rows, &cfg, 3, 0.7, 0.01, 55);
        let par = parallel_nyuminer_rs(
            Arc::clone(&data),
            Arc::clone(&rows),
            &cfg,
            3,
            0.7,
            0.01,
            &ParallelConfig::load_balanced(2),
            55,
        );
        assert_eq!(seq.rules.rules().len(), par.rules.rules().len());
        // Same decisions everywhere.
        for r in rows.iter().take(200) {
            assert_eq!(seq.predict(&data, *r), par.predict(&data, *r));
        }
    }

    #[test]
    fn parallel_rs_survives_worker_kills() {
        let data = Arc::new(benchmark("diabetes", 4));
        let rows = Arc::new(data.all_rows());
        let cfg = NyuConfig::default();
        let seq = SeqRS::fit(&data, &rows, &cfg, 3, 0.7, 0.01, 55);
        let reg = MetricsRegistry::new();
        let parallel = ParallelConfig::load_balanced(2)
            .kill_after(Duration::ZERO, 1)
            .with_metrics(reg.clone());
        let par = parallel_nyuminer_rs(
            Arc::clone(&data),
            Arc::clone(&rows),
            &cfg,
            3,
            0.7,
            0.01,
            &parallel,
            55,
        );
        assert_eq!(seq.trees, par.trees);
        assert_eq!(seq.rules.rules().len(), par.rules.rules().len());
        assert!(respawns(&reg, "prs") >= 1, "the kill landed");
    }
}
