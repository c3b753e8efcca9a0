//! Mining over the socket backend: the Chapter 3/4 traversals and the
//! PEAR-style Apriori run unchanged against an `fpdm-spaced` broker —
//! backend selection is one `with_space` line at setup, the programs
//! themselves are byte-identical — and produce exactly the in-process
//! (and sequential) results, with and without injected worker kills.

use fpdm::assoc::{apriori, parallel_apriori};
use fpdm::core::prelude::*;
use fpdm::datagen::{basket_db, BasketSpec};
use fpdm::plinda::metrics::check_snapshot;
use fpdm::plinda::{Broker, BrokerConfig, MetricsRegistry, TupleSpace};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fpdm-mine-{}-{name}.sock", std::process::id()))
}

fn workload() -> ToyItemsets {
    let db = basket_db(
        &BasketSpec {
            transactions: 250,
            items: 25,
            avg_txn_len: 6,
            ..BasketSpec::default()
        },
        3,
    );
    ToyItemsets::new(db.transactions().to_vec(), 10)
}

#[test]
fn plet_lb_over_socket_equals_sequential() {
    let p = Arc::new(workload());
    let reference = sequential_ett(&*p);
    assert!(!reference.is_empty());

    let broker = Broker::start(BrokerConfig::new(socket_path("plet"))).unwrap();
    let space = Arc::new(TupleSpace::connect_unix(broker.socket()).unwrap());
    let cfg = ParallelConfig::load_balanced(3).with_space(space);
    let got = parallel_ett(Arc::clone(&p), &cfg);
    assert_eq!(reference.good, got.good);
    assert_eq!(reference.tested, got.tested);
}

#[test]
fn plet_lb_over_socket_survives_kills_with_consistent_ledger() {
    let p = Arc::new(workload());
    let reference = sequential_ett(&*p);

    let broker = Broker::start(BrokerConfig::new(socket_path("plet-kill"))).unwrap();
    let space = Arc::new(TupleSpace::connect_unix(broker.socket()).unwrap());
    let reg = MetricsRegistry::new();
    let cfg = ParallelConfig::load_balanced(3)
        .kill_after(Duration::from_millis(2), 0)
        .kill_after(Duration::from_millis(6), 1)
        .with_metrics(reg.clone())
        .with_space(space);
    let got = parallel_ett(Arc::clone(&p), &cfg);
    assert_eq!(reference.good, got.good, "kills must not change the answer");

    let snap = reg.snapshot();
    let violations = check_snapshot(&snap);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(
        snap.sum_counters(|k| k.starts_with("farm.plet-lb.worker.") && k.ends_with(".tasks")),
        got.tested,
        "every tested pattern is one committed task, socket or not"
    );
}

#[test]
fn seqmine_over_socket_equals_sequential() {
    // One of the newly farmed miners over the broker: byte-identical
    // report, even with a worker kill mid-run.
    use fpdm::seqmine::{discover, DiscoveryParams, Sequence};
    let db: Vec<Sequence> = ["GATTACA", "GATTTACA", "CATTACA", "TTACAGA", "ATTACAT"]
        .iter()
        .map(|s| Sequence::from_str(s))
        .collect();
    let params = DiscoveryParams::new(3, 7, 2, 0);
    let reference = discover(db.clone(), params.clone());
    assert!(!reference.is_empty());

    let broker = Broker::start(BrokerConfig::new(socket_path("seqmine"))).unwrap();
    let space = Arc::new(TupleSpace::connect_unix(broker.socket()).unwrap());
    let reg = MetricsRegistry::new();
    let cfg = ParallelConfig::load_balanced(3)
        .kill_after(Duration::from_millis(2), 1)
        .with_metrics(reg.clone())
        .with_space(space);
    let got = fpdm::seqmine::discover_farm(db, params, &cfg);
    assert_eq!(reference, got);

    let snap = reg.snapshot();
    assert_eq!(snap.counter("farm.seqmine.leaked"), 0);
    let violations = check_snapshot(&snap);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn treemine_and_episodes_over_socket_equal_sequential() {
    use fpdm::episodes::{discover_episodes, discover_episodes_farm, EpisodeParams, EventSequence};
    use fpdm::treemine::{
        discover_tree_motifs, discover_tree_motifs_farm, OrderedTree, TreeDiscoveryParams,
    };

    let trees: Vec<OrderedTree> = ["N(M(R,H),I(B))", "N(M(R,H))", "M(R,H,B)", "I(M(R,H),B)"]
        .iter()
        .map(|s| OrderedTree::parse(s))
        .collect();
    let tparams = TreeDiscoveryParams {
        min_size: 2,
        max_size: 3,
        min_occurrence: 4,
        max_distance: 0,
    };
    let tref = discover_tree_motifs(trees.clone(), tparams.clone());
    let broker = Broker::start(BrokerConfig::new(socket_path("treemine"))).unwrap();
    let space = Arc::new(TupleSpace::connect_unix(broker.socket()).unwrap());
    let got = discover_tree_motifs_farm(
        trees,
        tparams,
        &ParallelConfig::load_balanced(2).with_space(space),
    );
    assert_eq!(tref, got);

    let events = EventSequence::new(
        (0..16u32)
            .flat_map(|k| [(5 * k, b'A'), (5 * k + 2, b'B')])
            .collect(),
    );
    let eparams = EpisodeParams {
        window: 5,
        min_windows: 30,
        min_length: 2,
        max_length: 3,
    };
    let eref = discover_episodes(&events, eparams.clone());
    let broker = Broker::start(BrokerConfig::new(socket_path("episodes"))).unwrap();
    let space = Arc::new(TupleSpace::connect_unix(broker.socket()).unwrap());
    let got = discover_episodes_farm(
        &events,
        eparams,
        &ParallelConfig::load_balanced(2).with_space(space),
    );
    assert_eq!(eref, got);
}

#[test]
fn apriori_over_socket_equals_sequential() {
    let db = Arc::new(basket_db(
        &BasketSpec {
            transactions: 200,
            items: 20,
            avg_txn_len: 5,
            ..BasketSpec::default()
        },
        7,
    ));
    let reference = apriori(&db, 8);
    assert!(!reference.is_empty());

    let broker = Broker::start(BrokerConfig::new(socket_path("apriori"))).unwrap();
    let space = Arc::new(TupleSpace::connect_unix(broker.socket()).unwrap());
    let got = parallel_apriori(
        Arc::clone(&db),
        8,
        &ParallelConfig::load_balanced(3).with_space(space),
    );
    assert_eq!(reference, got);
}
