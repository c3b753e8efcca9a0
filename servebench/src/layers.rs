//! The traced run's per-layer measurements.
//!
//! Besides the traced window (spans and a ledger diff), the traced run
//! makes an isolated pass that times each layer's public entry point for
//! every request shape (dataset variant 0):
//!
//! * (a) `MiningRequest::encode` / `decode`;
//! * (b) the sequential library call;
//! * (c) the farm call over a fresh local space (farmed miners only);
//! * (d) the same farm call over a connection to the broker;
//! * (e) `ServiceClient::request` at idle, through this run's service.
//!
//! Each shape's time is then attributed: compute = b, farm = c − b,
//! socket = d − c, and service = e − d where the run's service runs its
//! jobs in the shared plane, e − c where it runs them in the private
//! plane (non-farmed shapes have c = d = b). The pass covers the shapes
//! of both workloads, so every traced run reports every per-layer
//! metric, and a shape's service overhead means the same whichever
//! workload's service answers it. The per-request ledger counts, in
//! contrast, come from this workload's own shapes only.

use crate::shapes::{self, Workload};
use crate::sys::BrokerProcess;
use crate::{metric, start_service, stats, Metric, Served, Window};
use fpdm::core::ParallelConfig;
use fpdm::plinda::metrics::MetricsSnapshot;
use fpdm::plinda::{Chan, MetricsRegistry, TupleSpace};
use fpdm::service::{
    Admission, AdmissionConfig, DatasetCatalog, JobPlane, MiningRequest, ServiceClient, Status,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions of each entry point; the median is reported.
const REPS: usize = 3;

/// Median wall time of `REPS` calls of `f`, in ms.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

fn is_farmed(req: &MiningRequest) -> bool {
    matches!(
        req,
        MiningRequest::Seqmine { .. }
            | MiningRequest::Treemine { .. }
            | MiningRequest::Episodes { .. }
    )
}

/// Run a farmed request's miner as a farm under `cfg`.
fn farm(cat: &DatasetCatalog, req: &MiningRequest, cfg: &ParallelConfig) {
    let missing = "catalog holds every request's dataset";
    match req {
        MiningRequest::Seqmine { dataset, params } => {
            let seqs = cat.sequences(dataset).expect(missing).as_ref().clone();
            black_box(fpdm::seqmine::discover::discover_farm(
                seqs,
                params.clone(),
                cfg,
            ));
        }
        MiningRequest::Treemine { dataset, params } => {
            let trees = cat.trees(dataset).expect(missing).as_ref().clone();
            black_box(fpdm::treemine::discover_tree_motifs_farm(
                trees,
                params.clone(),
                cfg,
            ));
        }
        MiningRequest::Episodes { dataset, params } => {
            let events = cat.events(dataset).expect(missing);
            black_box(fpdm::episodes::discover_episodes_farm(
                events,
                params.clone(),
                cfg,
            ));
        }
        MiningRequest::Classify { .. } | MiningRequest::Apriori { .. } => {
            unreachable!("{} is not farmed", req.kind())
        }
    }
}

/// Ledger counters whose per-request growth the traced run reports.
const COUNTERS: [&str; 4] = [
    "space.ops.out",
    "txn.commit",
    "net.batch.ops",
    "net.deferred.flushes",
];

/// The per-request metrics of [`ledger_growth`]'s entries, in order.
const COUNT_METRICS: [&str; 5] = [
    "space.outs_per_request",
    "txn.commits_per_request",
    "net.batch_ops_per_request",
    "net.deferred_flushes_per_request",
    "metrics.keys_per_request",
];

/// Growth of each of [`COUNTERS`], then of the number of ledger keys.
fn ledger_growth(s0: &MetricsSnapshot, s1: &MetricsSnapshot) -> [u64; 5] {
    let keys =
        |s: &MetricsSnapshot| (s.counters.len() + s.gauges.len() + s.histograms.len()) as u64;
    let mut d = [0; 5];
    for (slot, key) in d.iter_mut().zip(COUNTERS) {
        *slot = s1.counter(key) - s0.counter(key);
    }
    d[4] = keys(s1) - keys(s0);
    d
}

/// Every per-layer metric of a traced run of `w`; `broker_exe` is the
/// broker executable.
pub fn measure(
    w: Workload,
    broker_exe: &Path,
    served: &Served,
    traced: &Window,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    window_metrics(traced, before, after, &mut out);
    codec_and_admission(&mut out);
    let conn = served
        .broker
        .connect()
        .expect("broker connection for the isolated pass");
    net_metrics(&conn, &mut out);
    shape_metrics(w, broker_exe, served, &conn, &mut out)?;
    Ok(out)
}

/// The service layer as the traced window saw it. Means rather than
/// medians, because means add: client = exec + outside.
fn window_metrics(
    traced: &Window,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    out: &mut Vec<Metric>,
) {
    let hist = |s: &MetricsSnapshot| {
        s.histogram("service.latency_ns")
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let (c0, s0) = hist(before);
    let (c1, s1) = hist(after);
    let exec_ms = (s1 - s0) as f64 / (c1 - c0).max(1) as f64 / 1e6;
    let n = traced.latencies_ms.len().max(1) as f64;
    let client_ms = traced.latencies_ms.iter().sum::<f64>() / n;
    out.push(metric("service.exec_ms_mean", exec_ms, "ms"));
    out.push(metric("service.outside_exec_ms", client_ms - exec_ms, "ms"));
    let depth_hi = after.gauge("service.queue.depth").map_or(0, |g| g.hi);
    out.push(metric("service.queue_depth_hi", depth_hi as f64, "count"));
}

fn codec_and_admission(out: &mut Vec<Metric>) {
    const N: usize = 20_000;
    let (mut enc_s, mut dec_s) = (0.0, 0.0);
    let all = shapes::all_shapes();
    for shape in &all {
        let req = shape.request(0);
        let t = Instant::now();
        for _ in 0..N {
            black_box(black_box(&req).encode());
        }
        enc_s += t.elapsed().as_secs_f64();
        let bytes = req.encode();
        let t = Instant::now();
        for _ in 0..N {
            black_box(MiningRequest::decode(black_box(&bytes)).expect("own encoding decodes"));
        }
        dec_s += t.elapsed().as_secs_f64();
    }
    let per_op_us = |s: f64| s / (N * all.len()) as f64 * 1e6;
    out.push(metric("service.codec_encode_us", per_op_us(enc_s), "us"));
    out.push(metric("service.codec_decode_us", per_op_us(dec_s), "us"));

    const M: u64 = 200_000;
    let mut adm: Admission<u64> =
        Admission::new(AdmissionConfig::default(), &MetricsRegistry::new());
    let t = Instant::now();
    for i in 0..M {
        black_box(adm.offer((i % 4) as i64, i));
        black_box(adm.complete());
    }
    let ns = t.elapsed().as_secs_f64() / M as f64 * 1e9;
    out.push(metric("service.admission_ns", ns, "ns"));
}

/// Request-sized broker round trips on a connection of their own.
fn net_metrics(conn: &TupleSpace, out: &mut Vec<Metric>) {
    const N: usize = 2_000;
    let chan = Chan::<(i64, i64, Vec<u8>)>::new("servebench.roundtrip");
    let payload = (7, 1, shapes::all_shapes()[0].request(0).encode());
    let t = Instant::now();
    for _ in 0..N {
        chan.send(conn, &payload);
        black_box(chan.recv(conn));
    }
    let us = t.elapsed().as_secs_f64() / N as f64 * 1e6;
    out.push(metric("net.roundtrip_us", us, "us"));
}

/// Entry points (b)–(e) for every shape, the attribution, and the
/// per-request ledger counts of this workload's shapes. The counts of
/// each shape are also printed on a `# counts` line, so the self-test can
/// compare them shape by shape.
///
/// The counts always come from a shared-plane service, where a job's farm
/// tuples cross the broker and its channel gauges land in the service's
/// ledger: this run's own service for `serve_light`, and for `serve_farm`,
/// whose service runs the private plane, a second service on a broker of
/// its own, used for nothing else.
fn shape_metrics(
    w: Workload,
    broker_exe: &Path,
    served: &Served,
    conn: &Arc<TupleSpace>,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let cat = served.catalog.as_ref();
    let counting = match w.plane() {
        JobPlane::Shared => None,
        JobPlane::Private => {
            let broker = BrokerProcess::spawn(broker_exe, "counts")?;
            let service = start_service(&served.catalog, &broker, JobPlane::Shared)?;
            let client = ServiceClient::new(broker.connect()?, 1);
            Some((service, client, broker))
        }
    };
    let (count_service, count_client) = match &counting {
        Some((service, client, _)) => (service, client),
        None => (&served.service, &served.client),
    };
    let registry = count_service.registry();
    let own: Vec<&str> = w.shapes().iter().map(|s| s.name).collect();
    let mut counts = [0u64; COUNT_METRICS.len()];
    let (mut busy, mut blocked, mut wall) = (0u64, 0u64, 0u64);
    let mut tag = 0;
    for shape in shapes::all_shapes() {
        let req = shape.request(0);
        let b = time_ms(|| {
            black_box(shapes::direct(cat, &req));
        });
        out.push(metric(shape.compute_metric, b, "ms"));

        let local = ParallelConfig::load_balanced(2);
        // The time of the job itself on this run's plane.
        let job = if is_farmed(&req) {
            let c = time_ms(|| farm(cat, &req, &local));
            let d = time_ms(|| {
                tag += 1;
                let cfg = ParallelConfig::load_balanced(2)
                    .with_space(Arc::clone(conn))
                    .with_job_tag(format!("iso{tag}"));
                farm(cat, &req, &cfg);
            });
            // One metered local run for the exact task count and the
            // workers' busy/blocked split.
            let reg = MetricsRegistry::new();
            farm(
                cat,
                &req,
                &ParallelConfig::load_balanced(2).with_metrics(reg.clone()),
            );
            let snap = reg.snapshot();
            let tasks = snap.counter(&format!("chan.{}.result.recv", req.kind()));
            out.push(metric(
                format!("farm.tasks_per_request.{}", shape.name),
                tasks as f64,
                "count",
            ));
            out.push(metric(
                format!("farm.overhead_ms.{}", shape.name),
                c - b,
                "ms",
            ));
            out.push(metric(
                format!("farm.socket_ms.{}", shape.name),
                d - c,
                "ms",
            ));
            let sum =
                |suffix: &str| snap.sum_counters(|k| k.starts_with("farm.") && k.ends_with(suffix));
            busy += sum(".busy_ns");
            blocked += sum(".blocked_ns");
            wall += sum(".wall_ns");
            match w.plane() {
                JobPlane::Shared => d,
                JobPlane::Private => c,
            }
        } else {
            b
        };

        // (e) through this run's service at idle.
        let e = time_ms(|| {
            let resp = served.client.request(0, &req);
            assert_eq!(resp.status, Status::Ok, "{}: {}", shape.name, resp.text());
        });
        out.push(metric(
            format!("service.overhead_ms.{}", shape.name),
            e - job,
            "ms",
        ));

        // Ledger diffs around single requests give this workload's
        // per-request counts (median of the repetitions).
        if own.contains(&shape.name) {
            let diffs: Vec<[u64; COUNT_METRICS.len()]> = (0..REPS)
                .map(|_| {
                    let s0 = registry.snapshot();
                    let resp = count_client.request(0, &req);
                    assert_eq!(resp.status, Status::Ok, "{}: {}", shape.name, resp.text());
                    ledger_growth(&s0, &registry.snapshot())
                })
                .collect();
            let mut line = format!("# counts shape={}", shape.name);
            for (i, (total, name)) in counts.iter_mut().zip(COUNT_METRICS).enumerate() {
                let mut col: Vec<u64> = diffs.iter().map(|d| d[i]).collect();
                col.sort_unstable();
                *total += col[REPS / 2];
                let _ = write!(line, " {name}={}", col[REPS / 2]);
            }
            println!("{line}");
        }
    }
    for (name, total) in COUNT_METRICS.iter().zip(counts) {
        out.push(metric(*name, total as f64 / own.len() as f64, "count"));
    }
    out.push(metric(
        "farm.busy_share",
        busy as f64 / wall.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "farm.blocked_share",
        blocked as f64 / wall.max(1) as f64,
        "ratio",
    ));
    if let Some((service, client, broker)) = counting {
        service.shutdown();
        drop(client);
        drop(broker);
    }
    Ok(())
}
