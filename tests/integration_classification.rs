//! Cross-crate classification pipeline: the Chapter 5 learners on the
//! benchmark-shaped generated datasets, and the Chapter 6 parallel
//! versions matching their sequential counterparts.

use fpdm::classify::c45::{C45Config, C45};
use fpdm::classify::nyuminer::{NyuConfig, NyuMinerCV, NyuMinerRS};
use fpdm::classify::prune::grow_with_cv_pruning;
use fpdm::classify::tree::GrowRule;
use fpdm::classify::Classifier;
use fpdm::core::ParallelConfig;
use fpdm::datagen::benchmark;
use fpdm::parmine::{parallel_c45_trials, parallel_nyuminer_cv, parallel_nyuminer_rs};
use std::sync::Arc;

#[test]
fn learners_beat_plurality_on_signal_rich_data() {
    // vote has strong planted signal: every learner must clearly beat the
    // plurality baseline out of sample.
    let data = benchmark("vote", 13);
    let (train, test) = data.stratified_halves(1);
    let (_, plurality) = data.plurality(&test);

    let nyu = NyuMinerCV::fit(&data, &train, &NyuConfig::default(), 5, 2);
    let cart = grow_with_cv_pruning(&data, &train, &GrowRule::Cart, &Default::default(), 5, 2);
    let c45 = C45::fit(&data, &train, &C45Config::default());
    let rs = NyuMinerRS::fit(&data, &train, &NyuConfig::default(), 3, 0.0, 0.02, 2);

    for (name, acc) in [
        ("NyuMiner-CV", nyu.accuracy(&data, &test)),
        ("CART", cart.tree.accuracy(&data, &test)),
        ("C4.5", c45.accuracy(&data, &test)),
        ("NyuMiner-RS", rs.accuracy(&data, &test)),
    ] {
        assert!(
            acc > plurality + 0.10,
            "{name}: {acc:.3} vs plurality {plurality:.3}"
        );
    }
}

#[test]
fn pruning_helps_on_noisy_data() {
    // diabetes has weak signal: the CV-pruned tree should generalise at
    // least as well as the fully grown tree.
    let data = benchmark("diabetes", 29);
    let (train, test) = data.stratified_halves(3);
    let cfg = NyuConfig::default();
    let unpruned = NyuMinerCV::fit(&data, &train, &cfg, 0, 1);
    let pruned = NyuMinerCV::fit(&data, &train, &cfg, 10, 1);
    assert!(pruned.tree.leaves() <= unpruned.tree.leaves());
    assert!(
        pruned.accuracy(&data, &test) >= unpruned.accuracy(&data, &test) - 0.02,
        "pruned {:.3} vs unpruned {:.3}",
        pruned.accuracy(&data, &test),
        unpruned.accuracy(&data, &test)
    );
}

#[test]
fn parallel_cv_and_trials_match_sequential() {
    let data = Arc::new(benchmark("german", 31));
    let rows = Arc::new(data.all_rows());
    let cfg = NyuConfig::default();

    // Parallel NyuMiner-CV == sequential CV pruning (same seed).
    let seq = grow_with_cv_pruning(
        &data,
        &rows,
        &fpdm::classify::tree::GrowRule::NyuMiner {
            max_branches: cfg.max_branches,
            impurity: cfg.impurity.as_dyn(),
        },
        &cfg.grow,
        4,
        77,
    );
    let par = parallel_nyuminer_cv(
        Arc::clone(&data),
        Arc::clone(&rows),
        &cfg,
        4,
        &ParallelConfig::load_balanced(3),
        77,
    );
    assert_eq!(seq.alpha, par.alpha);
    assert_eq!(seq.tree.leaves(), par.tree.leaves());

    // Parallel C4.5 trials == sequential trials.
    let c45cfg = C45Config::default();
    let seq_tree = C45::fit_trials(&data, &rows, &c45cfg, 3, 5);
    let par_tree = parallel_c45_trials(
        Arc::clone(&data),
        Arc::clone(&rows),
        &c45cfg,
        3,
        &ParallelConfig::load_balanced(2),
        5,
    );
    assert_eq!(
        seq_tree.tree.accuracy(&data, &rows),
        par_tree.accuracy(&data, &rows)
    );

    // Parallel NyuMiner-RS == sequential RS.
    let seq_rs = NyuMinerRS::fit(&data, &rows, &cfg, 2, 0.6, 0.01, 5);
    let par_rs = parallel_nyuminer_rs(
        Arc::clone(&data),
        Arc::clone(&rows),
        &cfg,
        2,
        0.6,
        0.01,
        &ParallelConfig::load_balanced(2),
        5,
    );
    assert_eq!(seq_rs.rules.rules().len(), par_rs.rules.rules().len());
}

#[test]
fn forex_pipeline_produces_rare_confident_rules() {
    use fpdm::classify::forex::run_forex;
    use fpdm::datagen::{fx_series, FxSpec};
    let rates = fx_series(
        &FxSpec {
            days: 2600,
            ..FxSpec::default()
        },
        3,
    );
    let run = run_forex(&rates, &NyuConfig::default(), 2, 0.75, 0.01, 4);
    // Rule selection is selective: it must not fire on every day.
    let tradable_days = rates.len() - 253;
    assert!(run.outcome.days_covered < tradable_days / 2);
}
