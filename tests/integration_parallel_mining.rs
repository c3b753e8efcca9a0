//! Cross-crate parallel mining: the Chapter 4 applications (protein and
//! RNA motif discovery) and PEAR-style association mining all produce
//! sequential-identical results on the PLinda runtime, across strategies
//! and worker counts.

use fpdm::assoc::{apriori, parallel_apriori};
use fpdm::core::ParallelConfig;
use fpdm::datagen::{basket_db, protein_family, rna_structures, BasketSpec, PlantedMotif};
use fpdm::seqmine::{discover, discover_parallel, DiscoveryParams};
use fpdm::treemine::{
    discover_tree_motifs, discover_tree_motifs_parallel, OrderedTree, TreeDiscoveryParams,
};
use std::sync::Arc;

#[test]
fn protein_discovery_parallel_equals_sequential_all_strategies() {
    let family = protein_family(9, 20, 80, 10, &[PlantedMotif::exact("WWHHKK", 0.6)]);
    let params = DiscoveryParams::new(4, 8, 8, 1).with_sample_occurrence(2);
    let reference = discover(family.clone(), params.clone());
    assert!(!reference.is_empty(), "planted motif should be found");
    for cfg in [
        ParallelConfig::load_balanced(2),
        ParallelConfig::load_balanced(5),
        ParallelConfig::optimistic(3),
        ParallelConfig::load_balanced(7).adaptive(),
        ParallelConfig::optimistic(7).adaptive(),
    ] {
        let got = discover_parallel(family.clone(), params.clone(), &cfg);
        assert_eq!(reference, got, "config {cfg:?}");
    }
}

#[test]
fn rna_discovery_parallel_equals_sequential() {
    let motif = OrderedTree::parse("M(R(H),R)");
    let trees = rna_structures(4, 10, 14, &[(motif, 0.7)]);
    let params = TreeDiscoveryParams {
        min_size: 3,
        max_size: 4,
        min_occurrence: 7,
        max_distance: 1,
    };
    let reference = discover_tree_motifs(trees.clone(), params.clone());
    assert!(!reference.is_empty());
    for workers in [2, 4] {
        let got = discover_tree_motifs_parallel(
            trees.clone(),
            params.clone(),
            &ParallelConfig::load_balanced(workers),
        );
        assert_eq!(reference, got, "workers={workers}");
    }
}

#[test]
fn pear_count_distribution_equals_apriori() {
    let db = basket_db(
        &BasketSpec {
            transactions: 600,
            items: 60,
            avg_txn_len: 8,
            ..BasketSpec::default()
        },
        21,
    );
    let min_support = db.len() / 30;
    let reference = apriori(&db, min_support);
    assert!(
        reference.keys().any(|s| s.len() >= 2),
        "workload should contain frequent pairs"
    );
    for workers in [1, 3, 6] {
        assert_eq!(
            parallel_apriori(
                Arc::new(db.clone()),
                min_support,
                &ParallelConfig::load_balanced(workers)
            ),
            reference,
            "workers={workers}"
        );
    }
}

#[test]
fn episode_discovery_parallel_equals_sequential() {
    use fpdm::datagen::event_stream;
    use fpdm::episodes::{
        discover_episodes, discover_episodes_parallel, EpisodeParams, EventSequence,
    };
    let stream = EventSequence::new(event_stream(5, 800, 4, 0.3, &[(b"pq", 10)]));
    let windows = stream.n_windows(6);
    let params = EpisodeParams {
        window: 6,
        min_windows: windows / 5,
        min_length: 1,
        max_length: 3,
    };
    let reference = discover_episodes(&stream, params.clone());
    assert!(reference.iter().any(|e| e.episode == b"pq".to_vec()));
    for workers in [2, 5] {
        let got = discover_episodes_parallel(
            &stream,
            params.clone(),
            &ParallelConfig::load_balanced(workers),
        );
        assert_eq!(reference, got, "workers={workers}");
    }
}

#[test]
fn protein_discovery_trace_passes_protocol_checkers() {
    // Same discovery run as above, but recorded: the full tuple-space
    // trace of the mining farm — including two injected worker kills —
    // must satisfy the atomicity, leak, and deadlock checkers.
    use fpdm::plinda::check::check_trace;
    use fpdm::plinda::Recorder;
    use std::time::Duration;
    let family = protein_family(9, 20, 80, 10, &[PlantedMotif::exact("WWHHKK", 0.6)]);
    let params = DiscoveryParams::new(4, 8, 8, 1).with_sample_occurrence(2);
    let reference = discover(family.clone(), params.clone());
    let rec = Recorder::new();
    let cfg = ParallelConfig::load_balanced(3)
        .kill_after(Duration::from_millis(1), 1)
        .kill_after(Duration::from_millis(3), 0)
        .with_recorder(rec.clone());
    let got = discover_parallel(family, params, &cfg);
    assert_eq!(reference, got);

    let trace = rec.take();
    assert!(!trace.events.is_empty(), "recorder captured the run");
    let report = check_trace(&trace, &[]);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn metered_protein_discovery_ledger_is_consistent() {
    // Same discovery run, but with the metrics registry installed: at
    // quiescence the ledger must balance — every tuple out was withdrawn
    // or reported leaked, every worker's busy + blocked time fits its
    // wall time, and the cross-layer `check_snapshot` invariants hold.
    use fpdm::plinda::metrics::check_snapshot;
    use fpdm::plinda::MetricsRegistry;
    let family = protein_family(9, 20, 80, 10, &[PlantedMotif::exact("WWHHKK", 0.6)]);
    let params = DiscoveryParams::new(4, 8, 8, 1).with_sample_occurrence(2);
    let reference = discover(family.clone(), params.clone());
    let reg = MetricsRegistry::new();
    let cfg = ParallelConfig::load_balanced(3).with_metrics(reg.clone());
    let got = discover_parallel(family, params, &cfg);
    assert_eq!(reference, got);

    let snap = reg.snapshot();
    // Tuple conservation: outs == takes + leaked (reads never withdraw).
    let outs = snap.counter("space.ops.out");
    let takes = snap.counter("space.ops.take");
    let leaked = snap.sum_counters(|k| k.starts_with("farm.") && k.ends_with(".leaked"));
    assert!(outs > 0, "metered run recorded no outs");
    assert_eq!(outs, takes + leaked, "tuple ledger must balance");
    // Per-worker time: busy + blocked never exceeds wall, so idle >= 0.
    for w in 0..3 {
        let p = format!("farm.plet-lb.worker.{w}");
        let wall = snap.counter(&format!("{p}.wall_ns"));
        let busy = snap.counter(&format!("{p}.busy_ns"));
        let blocked = snap.counter(&format!("{p}.blocked_ns"));
        assert!(wall > 0, "worker {w} reported no wall time");
        assert!(
            busy + blocked <= wall + 1_000_000,
            "worker {w}: busy {busy} + blocked {blocked} > wall {wall}"
        );
    }
    // Every transaction resolved; the farm's commits cover its tasks.
    assert!(snap.counter("txn.commit") > 0);
    let violations = check_snapshot(&snap);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn classification_rule_mining_parallel_equals_sequential() {
    use fpdm::classify::rulemine::RuleMiningProblem;
    use fpdm::core::{parallel_ett, parallel_hybrid, sequential_ett};
    use fpdm::datagen::benchmark;
    let data = benchmark("vote", 19);
    let rows: Vec<usize> = data.all_rows().into_iter().take(200).collect();
    let problem = Arc::new(RuleMiningProblem::new(data, rows, 3, 20));
    let reference = sequential_ett(&*problem);
    assert!(!reference.is_empty());
    let par = parallel_ett(Arc::clone(&problem), &ParallelConfig::load_balanced(3));
    assert_eq!(reference.good, par.good);
    // Theorem 4's hybrid also agrees.
    let hybrid = parallel_hybrid(Arc::clone(&problem), &ParallelConfig::load_balanced(3), 2);
    assert_eq!(reference.good, hybrid.good);
}
