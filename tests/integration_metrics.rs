//! The acceptance test for the observability layer: the *same* workload
//! run for real on the threaded PLinda farm and replayed in the `nowsim`
//! discrete-event simulator must emit `MetricsSnapshot` ledgers in the
//! identical frozen JSON schema — one decoder, one schema header, both
//! consistent under the cross-layer invariant checker. Simulated curves
//! (Figs. 6.3–6.8) and real measurements are only comparable because the
//! ledger format is shared.

use fpdm::nowsim::{MachineSpec, SimConfig, SimTask, Simulator, StaticProgram};
use fpdm::plinda::metrics::check_snapshot;
use fpdm::plinda::{FarmConfig, MetricsRegistry, MetricsSnapshot, TaskFarm};

const TASKS: u64 = 8;

/// Real run: `TASKS` trivial tasks over two threaded workers.
fn real_ledger() -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    let farm = TaskFarm::<i64, i64>::start(
        "job",
        FarmConfig::bag(2).with_metrics(reg.clone()),
        |scope, _flag, n| {
            scope.result(&(n * n));
            Ok(())
        },
    );
    for i in 0..TASKS {
        farm.send(0, &(i as i64));
    }
    for _ in 0..TASKS {
        farm.recv();
    }
    let report = farm.finish();
    assert!(report.leaked.is_empty(), "{:?}", report.leaked);
    reg.snapshot()
}

/// Simulated run: the same bag of `TASKS` unit tasks on two machines.
fn sim_ledger() -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    let mut prog = StaticProgram::new((0..TASKS).map(|i| SimTask::new(i, 1.0)).collect());
    let r = Simulator::run(
        &mut prog,
        &[MachineSpec::ideal(), MachineSpec::ideal()],
        &SimConfig::lan_default(),
        Some(&reg),
    );
    assert_eq!(r.completed, TASKS);
    reg.snapshot()
}

#[test]
fn real_and_simulated_ledgers_share_the_frozen_schema() {
    let (real, sim) = (real_ledger(), sim_ledger());

    // Both ledgers describe the same workload.
    let real_tasks = real.sum_counters(|k| k.contains(".worker.") && k.ends_with(".tasks"));
    assert_eq!(real_tasks, TASKS, "real workers processed every task");
    assert_eq!(sim.counter("sim.tasks.completed"), TASKS);

    // Identical schema header, one decoder accepts both, and each
    // round-trips losslessly — the schema-identity acceptance criterion.
    let (rj, sj) = (real.to_json(), sim.to_json());
    assert_eq!(
        rj.lines().nth(1),
        sj.lines().nth(1),
        "schema header differs"
    );
    assert_eq!(MetricsSnapshot::from_json(&rj).unwrap(), real);
    assert_eq!(MetricsSnapshot::from_json(&sj).unwrap(), sim);

    // Both are quiescent, balanced ledgers.
    for (name, snap) in [("real", &real), ("sim", &sim)] {
        let violations = check_snapshot(snap);
        assert!(violations.is_empty(), "{name}: {violations:?}");
    }
}

/// One metered run per farmed lattice miner, on doc-test-scale inputs.
fn miner_ledgers() -> Vec<(&'static str, MetricsSnapshot)> {
    use fpdm::core::ParallelConfig;
    use fpdm::episodes::{discover_episodes_farm, EpisodeParams, EventSequence};
    use fpdm::seqmine::{discover_farm, DiscoveryParams, Sequence};
    use fpdm::treemine::{discover_tree_motifs_farm, OrderedTree, TreeDiscoveryParams};
    let metered = |workers, reg: &MetricsRegistry| {
        ParallelConfig::load_balanced(workers).with_metrics(reg.clone())
    };

    let mut out = Vec::new();

    let reg = MetricsRegistry::new();
    let db: Vec<Sequence> = ["GATTACA", "GATTTACA", "CATTACA", "TTACAGA"]
        .iter()
        .map(|s| Sequence::from_str(s))
        .collect();
    let found = discover_farm(
        db.clone(),
        DiscoveryParams::new(3, 7, 2, 0),
        &metered(3, &reg),
    );
    assert_eq!(
        found,
        fpdm::seqmine::discover(db, DiscoveryParams::new(3, 7, 2, 0))
    );
    out.push(("seqmine", reg.snapshot()));

    let reg = MetricsRegistry::new();
    let trees: Vec<OrderedTree> = ["N(M(R,H),I(B))", "N(M(R,H))", "M(R,H,B)", "I(M(R,H),B)"]
        .iter()
        .map(|s| OrderedTree::parse(s))
        .collect();
    let params = TreeDiscoveryParams {
        min_size: 2,
        max_size: 3,
        min_occurrence: 4,
        max_distance: 0,
    };
    let found = discover_tree_motifs_farm(trees.clone(), params.clone(), &metered(2, &reg));
    assert_eq!(found, fpdm::treemine::discover_tree_motifs(trees, params));
    out.push(("treemine", reg.snapshot()));

    let reg = MetricsRegistry::new();
    let events = EventSequence::new(
        (0..16u32)
            .flat_map(|k| [(5 * k, b'A'), (5 * k + 2, b'B')])
            .collect(),
    );
    let params = EpisodeParams {
        window: 5,
        min_windows: 30,
        min_length: 2,
        max_length: 3,
    };
    let found = discover_episodes_farm(&events, params.clone(), &metered(2, &reg));
    assert_eq!(found, fpdm::episodes::discover_episodes(&events, params));
    out.push(("episodes", reg.snapshot()));

    out
}

#[test]
fn farmed_miner_ledgers_share_the_frozen_schema() {
    // The three new farm programs emit the same `fpdm.metrics.v1` ledger
    // as every other driver: identical schema header to a known-good real
    // run, lossless round-trip, clean invariants, and per-program farm
    // accounting under the miner's own farm name.
    let reference = real_ledger();
    let ref_header = reference.to_json().lines().nth(1).map(str::to_owned);
    for (name, snap) in miner_ledgers() {
        let json = snap.to_json();
        assert_eq!(
            json.lines().nth(1).map(str::to_owned),
            ref_header,
            "{name}: schema header differs from the frozen fpdm.metrics.v1"
        );
        assert_eq!(MetricsSnapshot::from_json(&json).unwrap(), snap, "{name}");

        let tasks = snap.sum_counters(|k| {
            k.starts_with(&format!("farm.{name}.worker.")) && k.ends_with(".tasks")
        });
        assert!(tasks > 0, "{name}: farm accounted no tasks");
        assert_eq!(snap.counter(&format!("farm.{name}.leaked")), 0, "{name}");

        let violations = check_snapshot(&snap);
        assert!(violations.is_empty(), "{name}: {violations:?}");
    }
}

#[test]
fn text_export_renders_both_ledgers() {
    // The aligned-text exporter is the human half of the surface; it must
    // mention every metric the JSON export carries.
    for snap in [real_ledger(), sim_ledger()] {
        let text = snap.to_text();
        for name in snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
        {
            assert!(text.contains(name.as_str()), "text export misses {name}");
        }
    }
}
