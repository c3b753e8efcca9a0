//! Integration tests for the mining service (`fpdm-service`).
//!
//! The load-bearing property is *transparency*: a service answer must be
//! bit-identical to running the same mining job directly through the
//! library — over the in-process space, over an `fpdm-spaced` broker
//! socket, and in both job planes (private per-job spaces, and farms
//! sharing the service's warm space under per-job channel namespacing).
//! On top of that: the once-per-dataset columnar index is genuinely
//! shared, admission control sheds exactly as accounted, malformed frames
//! are rejected without touching the admission ledger, and every final
//! snapshot passes `check_snapshot`.

use fpdm::datagen::{self, PlantedMotif};
use fpdm::plinda::metrics::check_snapshot;
use fpdm::plinda::{Broker, BrokerConfig, TupleSpace};
use fpdm::seqmine::{discover, DiscoveryParams};
use fpdm::service::{
    AdmissionConfig, DatasetCatalog, JobPlane, MiningRequest, MiningService, RuleTag,
    ServiceClient, ServiceConfig, Status,
};
use fpdm::treemine::OrderedTree;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Distinct socket path per broker, so concurrent tests never collide.
static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

fn socket_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fpdm-svc-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small catalog spanning every request kind.
fn catalog() -> DatasetCatalog {
    let mut cat = DatasetCatalog::new();
    cat.add_sequences(
        "fam",
        datagen::protein_family(3, 8, 20, 4, &[PlantedMotif::exact("HLRR", 0.8)]),
    );
    cat.add_trees(
        "rna",
        datagen::rna_structures(5, 10, 8, &[(OrderedTree::parse("a(b,c)"), 0.6)]),
    );
    cat.add_events(
        "alarms",
        fpdm::episodes::EventSequence::new(datagen::event_stream(2, 600, 3, 0.3, &[(b"AB", 25)])),
    );
    cat.add_table("vote", datagen::benchmarks::benchmark("vote", 7));
    cat.add_baskets(
        "baskets",
        fpdm::assoc::TransactionDb::new(
            (0..60)
                .map(|i| (0..4).map(|j| ((i * 5 + j * 7) % 12) as u32).collect())
                .collect(),
        ),
    );
    cat
}

/// One request of every kind against the `catalog()` datasets.
fn all_requests() -> Vec<MiningRequest> {
    vec![
        MiningRequest::Seqmine {
            dataset: "fam".into(),
            params: DiscoveryParams::new(3, 5, 5, 0),
        },
        MiningRequest::Treemine {
            dataset: "rna".into(),
            params: fpdm::treemine::TreeDiscoveryParams {
                min_size: 2,
                max_size: 4,
                min_occurrence: 5,
                max_distance: 0,
            },
        },
        MiningRequest::Episodes {
            dataset: "alarms".into(),
            params: fpdm::episodes::EpisodeParams {
                window: 30,
                min_windows: 10,
                min_length: 2,
                max_length: 3,
            },
        },
        MiningRequest::Classify {
            dataset: "vote".into(),
            rule: RuleTag::Cart,
            min_split: 2,
            max_depth: 64,
        },
        MiningRequest::Apriori {
            dataset: "baskets".into(),
            min_support: 12,
        },
    ]
}

/// The reference answer for each request, produced by direct library
/// calls (sequential miners — the farmed equivalence is already pinned by
/// `proptest_farm_miners`) and rendered exactly as the service renders.
fn reference_payloads(cat: &DatasetCatalog) -> Vec<Vec<u8>> {
    let reg = fpdm::plinda::MetricsRegistry::new();
    all_requests()
        .iter()
        .map(|req| match req {
            MiningRequest::Seqmine { dataset, params } => {
                let db = cat.sequences(dataset).unwrap().as_ref().clone();
                format!("{:?}", discover(db, params.clone())).into_bytes()
            }
            MiningRequest::Treemine { dataset, params } => {
                let db = cat.trees(dataset).unwrap().as_ref().clone();
                format!(
                    "{:?}",
                    fpdm::treemine::discover_tree_motifs(db, params.clone())
                )
                .into_bytes()
            }
            MiningRequest::Episodes { dataset, params } => {
                let ev = cat.events(dataset).unwrap();
                format!(
                    "{:?}",
                    fpdm::episodes::discover_episodes(ev, params.clone())
                )
                .into_bytes()
            }
            MiningRequest::Classify { dataset, rule, .. } => {
                let entry = cat.table(dataset).unwrap();
                let index = entry.index(&reg);
                let rows: Vec<usize> = (0..entry.data().len()).collect();
                let tree = fpdm::classify::DecisionTree::grow_indexed(
                    entry.data(),
                    &index,
                    &rows,
                    &rule.grow_rule(),
                    &req.grow_config().unwrap(),
                );
                format!("{tree:?}").into_bytes()
            }
            MiningRequest::Apriori {
                dataset,
                min_support,
            } => {
                let db = cat.baskets(dataset).unwrap();
                format!("{:?}", fpdm::assoc::apriori(db, *min_support)).into_bytes()
            }
        })
        .collect()
}

/// Run every request kind through a service over `space` and compare each
/// payload byte-for-byte with the direct-run reference.
fn assert_service_matches_direct(space: Arc<TupleSpace>, plane: JobPlane) {
    let cat = Arc::new(catalog());
    let want = reference_payloads(&cat);
    let service = MiningService::start(
        ServiceConfig {
            plane,
            ..ServiceConfig::default()
        },
        Arc::clone(&cat),
        Arc::clone(&space),
    );
    let client = ServiceClient::new(Arc::clone(&space), 1);

    // Submit everything up front so jobs overlap, then collect.
    let reqids: Vec<(i64, usize)> = all_requests()
        .iter()
        .enumerate()
        .map(|(i, req)| (client.submit(i as i64 % 3, req), i))
        .collect();
    for (reqid, i) in reqids {
        let resp = client.wait(reqid);
        assert_eq!(resp.status, Status::Ok, "{}: {}", i, resp.text());
        assert_eq!(
            resp.payload, want[i],
            "service answer for request {i} differs from the direct run"
        );
    }

    let snap = service.shutdown();
    let problems = check_snapshot(&snap);
    assert!(problems.is_empty(), "{problems:?}");
    assert_eq!(snap.counter("service.requests.submitted"), 5);
    assert_eq!(snap.counter("service.requests.completed"), 5);
    assert_eq!(snap.counter("service.requests.shed"), 0);
}

#[test]
fn service_results_bit_identical_local_private_plane() {
    assert_service_matches_direct(Arc::new(TupleSpace::new()), JobPlane::Private);
}

#[test]
fn service_results_bit_identical_local_shared_plane() {
    assert_service_matches_direct(Arc::new(TupleSpace::new()), JobPlane::Shared);
}

#[test]
fn service_results_bit_identical_over_broker_socket() {
    let broker = Broker::start(BrokerConfig::new(socket_path())).unwrap();
    let space = Arc::new(TupleSpace::connect_unix(broker.socket()).unwrap());
    assert_service_matches_direct(space, JobPlane::Shared);
    broker.shutdown();
}

#[test]
fn columnar_index_is_built_once_and_shared() {
    let cat = Arc::new(catalog());
    let space = Arc::new(TupleSpace::new());
    let service = MiningService::start(
        ServiceConfig::default(),
        Arc::clone(&cat),
        Arc::clone(&space),
    );
    let client = ServiceClient::new(Arc::clone(&space), 2);
    let classify = MiningRequest::Classify {
        dataset: "vote".into(),
        rule: RuleTag::C45,
        min_split: 2,
        max_depth: 64,
    };
    let first = client.request(1, &classify);
    assert_eq!(first.status, Status::Ok);
    for _ in 0..3 {
        let again = client.request(2, &classify);
        assert_eq!(again.status, Status::Ok);
        assert_eq!(again.payload, first.payload, "warm runs must not drift");
    }
    let snap = service.shutdown();
    assert_eq!(snap.counter("service.index.built"), 1);
    assert_eq!(snap.counter("service.index.hits"), 3);
}

#[test]
fn shared_plane_jobs_leave_no_per_job_ledger_keys() {
    // Each shared-plane job runs its farm under channels tagged with its
    // reqid; none of those channel keys may outlive the job in the
    // service's registry, or a resident service's ledger grows per job.
    let cat = Arc::new(catalog());
    let space = Arc::new(TupleSpace::new());
    let service = MiningService::start(
        ServiceConfig {
            plane: JobPlane::Shared,
            ..ServiceConfig::default()
        },
        Arc::clone(&cat),
        Arc::clone(&space),
    );
    let client = ServiceClient::new(Arc::clone(&space), 5);
    let req = MiningRequest::Seqmine {
        dataset: "fam".into(),
        params: DiscoveryParams::new(3, 5, 5, 0),
    };
    let registry = service.registry();
    let keys = || {
        let snap = registry.snapshot();
        snap.counters.len() + snap.gauges.len() + snap.histograms.len()
    };
    let run = |jobs| {
        for _ in 0..jobs {
            assert_eq!(client.request(1, &req).status, Status::Ok);
        }
    };
    run(2);
    let after_two = keys();
    run(6);
    assert_eq!(keys(), after_two, "8 jobs left more ledger keys than 2");
    let snap = service.shutdown();
    let mut names = snap.counters.keys().chain(snap.gauges.keys());
    assert!(
        names.all(|k| !k.starts_with("chan.seqmine.")),
        "per-job channel keys survived"
    );
}

#[test]
fn admission_sheds_when_a_tenant_floods_a_tiny_queue() {
    let cat = Arc::new(catalog());
    let space = Arc::new(TupleSpace::new());
    let service = MiningService::start(
        ServiceConfig {
            admission: AdmissionConfig {
                run_slots: 1,
                queue_cap: 1,
                shed_hi: 1000,
                shed_lo: 10,
            },
            executors: 1,
            ..ServiceConfig::default()
        },
        Arc::clone(&cat),
        Arc::clone(&space),
    );
    let client = ServiceClient::new(Arc::clone(&space), 3);
    // A burst of identical jobs from one tenant: 1 runs, 1 queues, the
    // rest must shed with TenantFull once the gate has seen them.
    let burst = 8;
    let req = MiningRequest::Seqmine {
        dataset: "fam".into(),
        params: DiscoveryParams::new(3, 5, 5, 0),
    };
    let reqids: Vec<i64> = (0..burst).map(|_| client.submit(9, &req)).collect();
    let mut ok = 0u64;
    let mut shed = 0u64;
    for reqid in reqids {
        let resp = client.wait(reqid);
        match resp.status {
            Status::Ok => ok += 1,
            Status::Shed => {
                shed += 1;
                assert_eq!(resp.text(), "tenant queue full");
            }
            Status::Error => panic!("unexpected error: {}", resp.text()),
        }
    }
    let snap = service.shutdown();
    let problems = check_snapshot(&snap);
    assert!(problems.is_empty(), "{problems:?}");
    assert_eq!(ok + shed, burst);
    assert_eq!(snap.counter("service.requests.submitted"), burst);
    assert_eq!(snap.counter("service.requests.completed"), ok);
    assert_eq!(snap.counter("service.requests.shed"), shed);
    assert_eq!(snap.counter("service.requests.shed.tenant_full"), shed);
    // Serialised gate + 1 slot + queue_cap 1: at least one of the burst
    // must have been refused.
    assert!(shed >= 1, "burst of {burst} through queue_cap 1 never shed");
}

#[test]
fn unknown_datasets_and_malformed_frames_answer_errors() {
    let cat = Arc::new(catalog());
    let space = Arc::new(TupleSpace::new());
    let service = MiningService::start(
        ServiceConfig::default(),
        Arc::clone(&cat),
        Arc::clone(&space),
    );
    let client = ServiceClient::new(Arc::clone(&space), 4);

    let resp = client.request(
        1,
        &MiningRequest::Apriori {
            dataset: "nope".into(),
            min_support: 1,
        },
    );
    assert_eq!(resp.status, Status::Error);
    assert_eq!(resp.text(), "unknown dataset \"nope\"");

    // A malformed frame, sent on the raw request channel.
    use fpdm::plinda::channel::{Chan, KeyedChan};
    let raw: Chan<(i64, i64, Vec<u8>)> = Chan::new("svc.request");
    raw.send(&space, &(424242, 1, vec![0xde, 0xad]));
    let responses: KeyedChan<(i64, Vec<u8>)> = KeyedChan::new("svc.response");
    let (status, payload) = responses.recv_for(&space, 424242);
    assert_eq!(status, Status::Error as i64);
    assert_eq!(String::from_utf8(payload).unwrap(), "bad request magic");

    let snap = service.shutdown();
    let problems = check_snapshot(&snap);
    assert!(problems.is_empty(), "{problems:?}");
    // The dataset miss is real load (submitted + completed, with an error
    // payload); the malformed frame never reaches the admission ledger.
    assert_eq!(snap.counter("service.requests.submitted"), 1);
    assert_eq!(snap.counter("service.requests.rejected"), 1);
}

/// Poll for `reqid`'s response for up to 30 s, so a lost response fails
/// the test instead of hanging it.
fn wait_bounded(space: &TupleSpace, reqid: i64) -> Option<(i64, Vec<u8>)> {
    use fpdm::plinda::channel::KeyedChan;
    let responses: KeyedChan<(i64, Vec<u8>)> = KeyedChan::new("svc.response");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        if let Some(resp) = responses.try_recv_for(space, reqid) {
            return Some(resp);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    None
}

#[test]
fn zero_window_episodes_request_is_rejected_and_the_service_keeps_serving() {
    let space = Arc::new(TupleSpace::new());
    // One executor and one run slot: an executor lost to the bad request
    // would strand every request after it.
    let service = MiningService::start(
        ServiceConfig {
            executors: 1,
            admission: AdmissionConfig {
                run_slots: 1,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
        Arc::new(catalog()),
        Arc::clone(&space),
    );
    let client = ServiceClient::new(Arc::clone(&space), 6);
    let valid = all_requests()[2].clone();
    let MiningRequest::Episodes { dataset, params } = valid.clone() else {
        unreachable!("all_requests()[2] is the episodes request")
    };
    let zero = MiningRequest::Episodes {
        dataset,
        params: fpdm::episodes::EpisodeParams {
            window: 0,
            ..params
        },
    };

    let reqid = client.submit(1, &zero);
    let (status, payload) = wait_bounded(&space, reqid).expect("window-0 request never answered");
    assert_eq!(status, Status::Error as i64);
    assert_eq!(
        String::from_utf8(payload).unwrap(),
        "episode window must be at least 1"
    );
    let reqid = client.submit(1, &valid);
    let (status, _) = wait_bounded(&space, reqid).expect("valid request after it never answered");
    assert_eq!(status, Status::Ok as i64);

    let snap = service.shutdown();
    let problems = check_snapshot(&snap);
    assert!(problems.is_empty(), "{problems:?}");
    assert_eq!(snap.counter("service.requests.rejected"), 1);
    assert_eq!(snap.counter("service.requests.submitted"), 1);
}
