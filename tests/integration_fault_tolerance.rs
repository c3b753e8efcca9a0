//! PLinda's fault-tolerance guarantee (§7.1.2) end-to-end: parallel
//! mining runs with injected worker kills must reach exactly the final
//! state of a failure-free execution.

use fpdm::core::prelude::*;
use fpdm::core::WorkerStrategy;
use fpdm::datagen::{basket_db, BasketSpec};
use std::sync::Arc;
use std::time::Duration;

fn workload() -> ToyItemsets {
    let db = basket_db(
        &BasketSpec {
            transactions: 300,
            items: 30,
            avg_txn_len: 6,
            ..BasketSpec::default()
        },
        5,
    );
    ToyItemsets::new(db.transactions().to_vec(), 12)
}

#[test]
fn load_balanced_survives_worker_kills() {
    let p = Arc::new(workload());
    let reference = sequential_ett(&*p);
    assert!(!reference.is_empty());
    let cfg = ParallelConfig::load_balanced(3)
        .kill_after(Duration::from_millis(2), 0)
        .kill_after(Duration::from_millis(5), 1)
        .kill_after(Duration::from_millis(9), 0);
    let got = parallel_ett(Arc::clone(&p), &cfg);
    assert_eq!(reference.good, got.good);
}

#[test]
fn optimistic_survives_worker_kills() {
    let p = Arc::new(workload());
    let reference = sequential_ett(&*p);
    let cfg = ParallelConfig {
        workers: 3,
        strategy: WorkerStrategy::Optimistic,
        initial_task_level: 1,
        kill_schedule: vec![(Duration::from_millis(1), 2), (Duration::from_millis(4), 0)],
        recorder: None,
        metrics: None,
        space: None,
        prefetch: None,
        job_tag: None,
    };
    let got = parallel_ett(Arc::clone(&p), &cfg);
    assert_eq!(reference.good, got.good);
}

#[test]
fn repeated_kills_of_every_worker() {
    // Kill each worker several times over the run; the bag-of-tasks must
    // still drain exactly once.
    let p = Arc::new(workload());
    let reference = sequential_ett(&*p);
    let mut cfg = ParallelConfig::load_balanced(2);
    for round in 0..5u64 {
        for w in 0..2 {
            cfg = cfg.kill_after(Duration::from_millis(2 + round * 3), w);
        }
    }
    let got = parallel_ett(Arc::clone(&p), &cfg);
    assert_eq!(reference.good, got.good);
}

#[test]
fn killed_runs_pass_the_protocol_checkers() {
    // Record a kill-heavy run and feed the trace to the offline protocol
    // analyzers: every transaction must be atomic, nothing may leak at
    // quiescence, and nobody may end the run blocked. (The deterministic
    // schedule-space version of this — a kill at *every* commit boundary
    // of the Fig. 2.6/2.7 vector-add program — is
    // `crates/tuplespace/tests/explore_vecadd.rs`.)
    use fpdm::plinda::check::check_trace;
    use fpdm::plinda::Recorder;
    let p = Arc::new(workload());
    let reference = sequential_ett(&*p);
    let rec = Recorder::new();
    let cfg = ParallelConfig::load_balanced(3)
        .kill_after(Duration::from_millis(2), 0)
        .kill_after(Duration::from_millis(6), 1)
        .with_recorder(rec.clone());
    let got = parallel_ett(Arc::clone(&p), &cfg);
    assert_eq!(reference.good, got.good);

    let trace = rec.take();
    assert!(!trace.events.is_empty(), "recorder captured the run");
    let report = check_trace(&trace, &[]);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn metered_killed_run_accounts_for_every_respawn() {
    // A kill-heavy run with the metrics registry installed: the ledger
    // must reconcile the kill schedule with the observed respawns — each
    // per-worker respawn counter sums to `runtime.respawns`, which never
    // exceeds `runtime.kills` (kills landing during shutdown respawn
    // nobody) — and the tuple ledger must still balance despite aborts.
    use fpdm::plinda::metrics::check_snapshot;
    use fpdm::plinda::MetricsRegistry;
    let p = Arc::new(workload());
    let reference = sequential_ett(&*p);
    let reg = MetricsRegistry::new();
    let cfg = ParallelConfig::load_balanced(3)
        .kill_after(Duration::from_millis(2), 0)
        .kill_after(Duration::from_millis(5), 1)
        .kill_after(Duration::from_millis(9), 0)
        .with_metrics(reg.clone());
    let got = parallel_ett(Arc::clone(&p), &cfg);
    assert_eq!(reference.good, got.good);

    let snap = reg.snapshot();
    let kills = snap.counter("runtime.kills");
    let respawns = snap.counter("runtime.respawns");
    let per_worker: u64 = snap.sum_counters(|k| {
        k.starts_with("farm.") && k.contains(".worker.") && k.ends_with(".respawns")
    });
    assert_eq!(per_worker, respawns, "worker cells must match the runtime");
    assert!(respawns <= kills, "respawns {respawns} > kills {kills}");
    assert!(kills <= 3, "kill schedule had 3 entries, saw {kills}");
    // Aborted transactions restored their tuples: conservation holds.
    let outs = snap.counter("space.ops.out");
    let takes = snap.counter("space.ops.take");
    let leaked = snap.sum_counters(|k| k.starts_with("farm.") && k.ends_with(".leaked"));
    assert_eq!(
        outs,
        takes + leaked,
        "tuple ledger must balance after kills"
    );
    let violations = check_snapshot(&snap);
    assert!(violations.is_empty(), "{violations:?}");
}

// ---------------------------------------------------------------------
// The three farmed miners — seqmine, treemine, episodes — under the
// interleaving explorer and under real-thread kill schedules.
// ---------------------------------------------------------------------

mod farmed_miners {
    use super::*;
    use fpdm::episodes::{EpisodeParams, EventSequence};
    use fpdm::plinda::check::{explore, ExploreConfig, ExploreReport};
    use fpdm::seqmine::{DiscoveryParams, Sequence};
    use fpdm::treemine::{OrderedTree, TreeDiscoveryParams};
    use fpdm::{datagen, episodes, seqmine, treemine};

    /// Run one real farmed miner through the interleaving explorer with
    /// a kill at every commit boundary, asserting checker cleanliness and
    /// equivalence with the sequential miner's report on every schedule.
    fn explore_farm<R: PartialEq + std::fmt::Debug>(
        workers: usize,
        sequential: R,
        farm: impl Fn(&ParallelConfig) -> R,
    ) -> ExploreReport<R> {
        let mut cfg = ExploreConfig::new();
        cfg.random_schedules = 8;
        cfg.seeds_per_kill = 2;
        let report = explore(&cfg, |space| {
            farm(&ParallelConfig::load_balanced(workers).with_space(space))
        });
        assert!(
            report.is_clean(),
            "{} of {} runs failed; first: {:#?}",
            report.failures.len(),
            report.runs,
            report.failures.first()
        );
        assert_eq!(
            report.reference.as_ref(),
            Some(&sequential),
            "every schedule must report exactly the sequential result"
        );
        for (kp, fired) in &report.kills_fired {
            assert!(*fired > 0, "kill at commit {} never fired", kp.commit);
        }
        report
    }

    #[test]
    fn seqmine_wave_survives_every_commit_boundary_kill() {
        let db: Vec<Sequence> = ["FFRR", "MRRM", "MTRM", "DPKY", "AVLG"]
            .iter()
            .map(|s| Sequence::from_str(s))
            .collect();
        let params = DiscoveryParams::new(2, 3, 2, 0);
        let sequential = seqmine::discover::discover(db.clone(), params.clone());
        let report = explore_farm(2, sequential, |cfg| {
            seqmine::discover::discover_farm(db.clone(), params.clone(), cfg)
        });
        assert!(!report.kill_points.is_empty());
    }

    #[test]
    fn treemine_wave_survives_every_commit_boundary_kill() {
        let trees: Vec<OrderedTree> = ["N(M(R,H),I(B))", "N(M(R,H))", "M(R,H,B)", "I(M(R,H),B)"]
            .iter()
            .map(|s| OrderedTree::parse(s))
            .collect();
        let params = TreeDiscoveryParams {
            min_size: 1,
            max_size: 2,
            min_occurrence: 3,
            max_distance: 0,
        };
        let sequential = treemine::discover::discover_tree_motifs(trees.clone(), params.clone());
        let report = explore_farm(2, sequential, |cfg| {
            treemine::discover::discover_tree_motifs_farm(trees.clone(), params.clone(), cfg)
        });
        assert!(!report.kill_points.is_empty());
    }

    #[test]
    fn episodes_wave_survives_every_commit_boundary_kill() {
        let events = EventSequence::new(vec![
            (0, b'A'),
            (1, b'C'),
            (2, b'B'),
            (4, b'A'),
            (5, b'B'),
            (8, b'A'),
            (9, b'C'),
            (10, b'B'),
        ]);
        let params = EpisodeParams {
            window: 4,
            min_windows: 3,
            min_length: 1,
            max_length: 2,
        };
        let sequential = episodes::discover_episodes(&events, params.clone());
        let report = explore_farm(3, sequential, |cfg| {
            episodes::discover_episodes_farm(&events, params.clone(), cfg)
        });
        assert!(!report.kill_points.is_empty());
    }

    /// Assert the run's ledger shows a fully drained farm (`leaked == 0`
    /// — the snapshot twin of `FarmReport.leaked` / `assert_drained`,
    /// which the drivers also assert internally) and clean cross-layer
    /// invariants.
    fn assert_farm_drained(reg: &fpdm::plinda::MetricsRegistry, name: &str) {
        use fpdm::plinda::metrics::check_snapshot;
        let snap = reg.snapshot();
        assert_eq!(snap.counter(&format!("farm.{name}.leaked")), 0);
        assert!(
            snap.sum_counters(
                |k| k.starts_with(&format!("farm.{name}.worker.")) && k.ends_with(".tasks")
            ) > 0,
            "the {name} farm committed work"
        );
        let violations = check_snapshot(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn seqmine_farm_drains_under_kill_schedule() {
        // datagen-scaled input: a planted-motif protein family.
        let db =
            datagen::protein_family(11, 8, 30, 5, &[datagen::PlantedMotif::exact("HLHRR", 0.9)]);
        let params = DiscoveryParams::new(3, 5, 5, 0);
        let sequential = seqmine::discover(db.clone(), params.clone());
        let reg = fpdm::plinda::MetricsRegistry::new();
        let cfg = ParallelConfig::load_balanced(3)
            .kill_after(Duration::from_millis(1), 0)
            .kill_after(Duration::from_millis(3), 1)
            .kill_after(Duration::from_millis(5), 2)
            .with_metrics(reg.clone());
        let farmed = seqmine::discover_farm(db, params, &cfg);
        assert_eq!(sequential, farmed);
        assert_farm_drained(&reg, "seqmine");
    }

    #[test]
    fn treemine_farm_drains_under_kill_schedule() {
        let motif = OrderedTree::parse("M(R,H)");
        let trees = datagen::rna_structures(23, 6, 8, &[(motif, 0.9)]);
        let params = TreeDiscoveryParams {
            min_size: 2,
            max_size: 3,
            min_occurrence: 4,
            max_distance: 0,
        };
        let sequential = treemine::discover_tree_motifs(trees.clone(), params.clone());
        let reg = fpdm::plinda::MetricsRegistry::new();
        let cfg = ParallelConfig::load_balanced(3)
            .kill_after(Duration::from_millis(1), 1)
            .kill_after(Duration::from_millis(2), 0)
            .with_metrics(reg.clone());
        let farmed = treemine::discover_tree_motifs_farm(trees, params, &cfg);
        assert_eq!(sequential, farmed);
        assert_farm_drained(&reg, "treemine");
    }

    #[test]
    fn episodes_farm_drains_under_kill_schedule() {
        let events = EventSequence::new(datagen::event_stream(31, 120, 4, 0.3, &[(b"ab", 10)]));
        let params = EpisodeParams {
            window: 6,
            min_windows: 20,
            min_length: 2,
            max_length: 3,
        };
        let sequential = episodes::discover_episodes(&events, params.clone());
        let reg = fpdm::plinda::MetricsRegistry::new();
        let cfg = ParallelConfig::load_balanced(2)
            .kill_after(Duration::from_millis(1), 0)
            .kill_after(Duration::from_millis(2), 1)
            .with_metrics(reg.clone());
        let farmed = episodes::discover_episodes_farm(&events, params, &cfg);
        assert_eq!(sequential, farmed);
        assert_farm_drained(&reg, "episodes");
    }

    #[test]
    fn killed_miner_run_passes_the_trace_checkers() {
        use fpdm::plinda::check::check_trace;
        use fpdm::plinda::Recorder;
        let db =
            datagen::protein_family(41, 6, 24, 4, &[datagen::PlantedMotif::exact("WWKR", 0.8)]);
        let params = DiscoveryParams::new(3, 4, 4, 0);
        let sequential = seqmine::discover(db.clone(), params.clone());
        let rec = Recorder::new();
        let cfg = ParallelConfig::load_balanced(3)
            .kill_after(Duration::from_millis(1), 2)
            .kill_after(Duration::from_millis(3), 0)
            .with_recorder(rec.clone());
        let farmed = seqmine::discover_farm(db, params, &cfg);
        assert_eq!(sequential, farmed);
        let trace = rec.take();
        assert!(!trace.events.is_empty());
        let report = check_trace(&trace, &[]);
        assert!(report.is_clean(), "{report}");
    }
}

#[test]
fn checkpoint_restore_roundtrips_mid_run_state() {
    // The checkpoint-protected tuple space (§2.4.6): serialise a space
    // holding in-flight work, restore into a fresh space, and drain it.
    use fpdm::plinda::{field, tup, Template, TupleSpace};
    let ts = TupleSpace::new();
    for i in 0..50i64 {
        ts.out(tup!["task", i, vec![i as u8; 8]]);
    }
    ts.out(tup!["wcount", 50i64]);
    let bytes = ts.checkpoint_bytes();

    let recovered = TupleSpace::new();
    recovered.restore_bytes(&bytes).unwrap();
    assert_eq!(recovered.len(), 51);
    let tmpl = Template::new(vec![field::val("task"), field::int(), field::bytes()]);
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = recovered.inp(&tmpl) {
        assert!(seen.insert(t.int(1)));
    }
    assert_eq!(seen.len(), 50);
}
