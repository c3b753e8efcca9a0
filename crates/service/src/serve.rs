//! The resident mining service and its typed client.
//!
//! Wire layout (all over one warm [`TupleSpace`], local or brokered):
//!
//! * `svc.request` — a [`Chan`] of `(reqid, tenant, request-bytes)`. Any
//!   client may send; the service's single gate thread withdraws in
//!   batches ([`Chan::recv_upto`]), so a brokered deployment pays one
//!   round trip for a burst, not one per request.
//! * `svc.response` — a [`KeyedChan`] of `(status, payload)` keyed by
//!   reqid. Keying makes sessions private: a client blocked in
//!   [`KeyedChan::recv_for`] can only ever see its own response, however
//!   many tenants share the space.
//!
//! The gate decodes each request and consults the [`Admission`]
//! controller under a lock. `Run` verdicts go straight to the executor
//! pool; `Queued` requests live inside the controller until an executor
//! finishes a job and pops the next one; `Shed` verdicts are answered
//! immediately with [`Status::Shed`] so callers never block on a refusal.
//!
//! Executors run jobs through the ordinary library entry points
//! ([`seqmine::discover::discover_farm`] and friends), so a service answer
//! is *bit-identical* to a direct farm run — the integration suite pins
//! that. Farms either get a private in-process space per job
//! ([`JobPlane::Private`]) or run over the service's own warm space
//! ([`JobPlane::Shared`]); in the shared plane each job's farm channels are
//! namespaced by a `job_tag` derived from the reqid so concurrent jobs of
//! the same program never collide. Shared-plane farms get no registry of
//! their own (the farm-ledger invariants assume one farm per registry):
//! their space traffic lands in the service's aggregate `space.*`/`txn.*`
//! counters, and the service ledger records the request lifecycle
//! (`service.*`). A job's tagged `chan.<program>.<tag>.*` keys are dropped
//! when its farm finishes ([`ParallelConfig::finish_farm`]), so the ledger
//! does not grow with the number of jobs served.

use crate::admission::{Admission, AdmissionConfig, Verdict};
use crate::catalog::DatasetCatalog;
use crate::request::{MiningRequest, MiningResponse, Status};
use classify::DecisionTree;
use fpdm_core::ParallelConfig;
use plinda::channel::{Chan, KeyedChan};
use plinda::metrics::{MetricsRegistry, MetricsSnapshot};
use plinda::space::TupleSpace;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Request stream name.
pub const REQUEST_CHAN: &str = "svc.request";
/// Response stream name (keyed by reqid).
pub const RESPONSE_CHAN: &str = "svc.response";

/// Tenant id reserved for the shutdown sentinel.
const SHUTDOWN_TENANT: i64 = i64::MIN;

/// Where executor jobs run their farms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPlane {
    /// Each job gets a fresh private in-process space (default: jobs are
    /// fully isolated, and the warm space carries only service traffic).
    Private,
    /// Jobs run over the service's warm space, with per-job channel
    /// namespacing. Exercises the whole stack over one broker socket.
    Shared,
}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission policy.
    pub admission: AdmissionConfig,
    /// Executor threads (must be ≥ `admission.run_slots` to honour them).
    pub executors: usize,
    /// Farm workers per job.
    pub job_workers: usize,
    /// Where job farms run.
    pub plane: JobPlane,
    /// Gate batch size for `recv_upto`.
    pub gate_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionConfig::default(),
            executors: 2,
            job_workers: 2,
            plane: JobPlane::Private,
            gate_batch: 16,
        }
    }
}

struct Job {
    reqid: i64,
    req: MiningRequest,
}

enum ExecMsg {
    Job(Job),
    Stop,
}

struct ServiceShared {
    space: Arc<TupleSpace>,
    catalog: Arc<DatasetCatalog>,
    registry: MetricsRegistry,
    cfg: ServiceConfig,
    admission: Mutex<Admission<Job>>,
    work_tx: Mutex<mpsc::Sender<ExecMsg>>,
    responses: KeyedChan<(i64, Vec<u8>)>,
}

impl ServiceShared {
    fn respond(&self, reqid: i64, status: Status, payload: Vec<u8>) {
        self.responses
            .send_to(&self.space, reqid, &(status as i64, payload));
    }

    fn dispatch(&self, job: Job) {
        self.work_tx
            .lock()
            .expect("work_tx lock")
            .send(ExecMsg::Job(job))
            .expect("executor pool alive while dispatching");
    }
}

/// The resident mining service: one gate thread, an executor pool, and a
/// warm space shared with its clients.
pub struct MiningService {
    shared: Arc<ServiceShared>,
    requests: Chan<(i64, i64, Vec<u8>)>,
    gate: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl MiningService {
    /// Start the service over `space` (the warm backend — a fresh local
    /// space, or one connected to an `fpdm-spaced` broker). Installs a new
    /// metrics registry on the space; the final snapshot is returned by
    /// [`MiningService::shutdown`].
    pub fn start(cfg: ServiceConfig, catalog: Arc<DatasetCatalog>, space: Arc<TupleSpace>) -> Self {
        assert!(
            cfg.executors >= cfg.admission.run_slots,
            "fewer executor threads than run slots would strand admitted requests"
        );
        let registry = MetricsRegistry::new();
        space.set_metrics(Some(registry.clone()));
        let (work_tx, work_rx) = mpsc::channel::<ExecMsg>();
        let shared = Arc::new(ServiceShared {
            space: Arc::clone(&space),
            catalog,
            registry: registry.clone(),
            admission: Mutex::new(Admission::new(cfg.admission.clone(), &registry)),
            work_tx: Mutex::new(work_tx),
            responses: KeyedChan::new(RESPONSE_CHAN),
            cfg,
        });

        let work_rx = Arc::new(Mutex::new(work_rx));
        let executors = (0..shared.cfg.executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let work_rx = Arc::clone(&work_rx);
                thread::Builder::new()
                    .name(format!("svc-exec-{i}"))
                    .spawn(move || executor_loop(&shared, &work_rx))
                    .expect("spawn executor")
            })
            .collect();

        let requests = Chan::new(REQUEST_CHAN);
        let gate = {
            let shared = Arc::clone(&shared);
            let requests = requests.clone();
            thread::Builder::new()
                .name("svc-gate".into())
                .spawn(move || gate_loop(&shared, &requests))
                .expect("spawn gate")
        };

        MiningService {
            shared,
            requests,
            gate: Some(gate),
            executors,
        }
    }

    /// The service's metrics registry (the one installed on the warm
    /// space), for mid-flight snapshots.
    pub fn registry(&self) -> MetricsRegistry {
        self.shared.registry.clone()
    }

    /// Stop accepting requests, run the backlog dry, stop the pool, and
    /// return the final ledger snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        // The sentinel shares the request signature, so it wakes the gate
        // even when it is parked inside a blocking batch withdrawal.
        self.requests
            .send(&self.shared.space, &(0, SHUTDOWN_TENANT, Vec::new()));
        if let Some(gate) = self.gate.take() {
            gate.join().expect("gate thread");
        }
        for h in self.executors.drain(..) {
            h.join().expect("executor thread");
        }
        self.shared.registry.snapshot()
    }
}

fn gate_loop(shared: &ServiceShared, requests: &Chan<(i64, i64, Vec<u8>)>) {
    let mut stopping = false;
    while !stopping {
        let batch = requests.recv_upto(&shared.space, shared.cfg.gate_batch.max(1));
        for (reqid, tenant, bytes) in batch {
            if tenant == SHUTDOWN_TENANT {
                stopping = true;
                continue;
            }
            admit(shared, reqid, tenant, &bytes);
        }
    }
    // Late arrivals racing the sentinel still get served before the pool
    // stops; drain whatever is left in the channel.
    for (reqid, tenant, bytes) in requests.drain(&shared.space) {
        if tenant != SHUTDOWN_TENANT {
            admit(shared, reqid, tenant, &bytes);
        }
    }
    // Wait for the backlog to run dry, then stop the executors.
    loop {
        if shared.admission.lock().expect("admission lock").idle() {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    let tx = shared.work_tx.lock().expect("work_tx lock");
    for _ in 0..shared.cfg.executors {
        tx.send(ExecMsg::Stop).expect("executor pool alive at stop");
    }
}

fn admit(shared: &ServiceShared, reqid: i64, tenant: i64, bytes: &[u8]) {
    let req = match MiningRequest::decode(bytes) {
        Ok(req) => req,
        Err(e) => {
            // Malformed frames never reach the admission ledger; they are
            // protocol errors, not load.
            shared.registry.counter("service.requests.rejected").inc();
            shared.respond(reqid, Status::Error, e.into_bytes());
            return;
        }
    };
    let job = Job { reqid, req };
    let verdict = {
        shared
            .admission
            .lock()
            .expect("admission lock")
            .offer(tenant, job)
    };
    match verdict {
        Verdict::Run(job) => shared.dispatch(job),
        Verdict::Queued => {}
        Verdict::Shed(reason) => {
            shared.respond(reqid, Status::Shed, reason.as_str().as_bytes().to_vec());
        }
    }
}

fn executor_loop(shared: &ServiceShared, work_rx: &Arc<Mutex<mpsc::Receiver<ExecMsg>>>) {
    let latency = shared.registry.histogram("service.latency_ns");
    loop {
        let msg = {
            let rx = work_rx.lock().expect("work_rx lock");
            rx.recv().expect("gate alive while executors run")
        };
        let job = match msg {
            ExecMsg::Job(job) => job,
            ExecMsg::Stop => break,
        };
        let t0 = Instant::now();
        let (status, payload) = match run_job(shared, &job) {
            Ok(payload) => (Status::Ok, payload),
            Err(e) => (Status::Error, e.into_bytes()),
        };
        latency.observe(t0.elapsed().as_nanos() as u64);
        shared.respond(job.reqid, status, payload);
        let next = shared.admission.lock().expect("admission lock").complete();
        if let Some((_tenant, job)) = next {
            shared.dispatch(job);
        }
    }
}

fn job_config(shared: &ServiceShared, reqid: i64) -> ParallelConfig {
    let cfg = ParallelConfig::load_balanced(shared.cfg.job_workers);
    match shared.cfg.plane {
        JobPlane::Private => cfg,
        JobPlane::Shared => cfg
            .with_space(Arc::clone(&shared.space))
            .with_job_tag(format!("j{reqid}")),
    }
}

fn run_job(shared: &ServiceShared, job: &Job) -> Result<Vec<u8>, String> {
    let cat = &shared.catalog;
    let missing = || format!("unknown dataset {:?}", job.req.dataset());
    match &job.req {
        MiningRequest::Seqmine { dataset, params } => {
            let seqs = cat.sequences(dataset).ok_or_else(missing)?;
            let cfg = job_config(shared, job.reqid);
            let motifs =
                seqmine::discover::discover_farm(seqs.as_ref().clone(), params.clone(), &cfg);
            Ok(render(&motifs))
        }
        MiningRequest::Treemine { dataset, params } => {
            let trees = cat.trees(dataset).ok_or_else(missing)?;
            let cfg = job_config(shared, job.reqid);
            let motifs = treemine::discover::discover_tree_motifs_farm(
                trees.as_ref().clone(),
                params.clone(),
                &cfg,
            );
            Ok(render(&motifs))
        }
        MiningRequest::Episodes { dataset, params } => {
            let events = cat.events(dataset).ok_or_else(missing)?;
            let cfg = job_config(shared, job.reqid);
            let eps = episodes::discover_episodes_farm(events, params.clone(), &cfg);
            Ok(render(&eps))
        }
        MiningRequest::Classify { dataset, rule, .. } => {
            let entry = cat.table(dataset).ok_or_else(missing)?;
            let index = entry.index(&shared.registry);
            let grow = job.req.grow_config().expect("classify carries grow knobs");
            let rows: Vec<usize> = (0..entry.data().len()).collect();
            let tree =
                DecisionTree::grow_indexed(entry.data(), &index, &rows, &rule.grow_rule(), &grow);
            Ok(render(&tree))
        }
        MiningRequest::Apriori {
            dataset,
            min_support,
        } => {
            let db = cat.baskets(dataset).ok_or_else(missing)?;
            let frequent = assoc::apriori(db, *min_support);
            Ok(render(&frequent))
        }
    }
}

/// Canonical result rendering: the `Debug` form, which every miner's
/// result type derives deterministically. Bit-identical to rendering a
/// direct library run the same way.
fn render<T: std::fmt::Debug>(value: &T) -> Vec<u8> {
    format!("{value:?}").into_bytes()
}

/// A typed client of a running service, local or on the far side of a
/// broker socket.
pub struct ServiceClient {
    space: Arc<TupleSpace>,
    requests: Chan<(i64, i64, Vec<u8>)>,
    responses: KeyedChan<(i64, Vec<u8>)>,
    next: AtomicI64,
}

impl ServiceClient {
    /// A client over `space`. `client_id` namespaces this client's request
    /// ids so independent clients (or processes) never collide.
    pub fn new(space: Arc<TupleSpace>, client_id: u16) -> Self {
        ServiceClient {
            space,
            requests: Chan::new(REQUEST_CHAN),
            responses: KeyedChan::new(RESPONSE_CHAN),
            next: AtomicI64::new((client_id as i64) << 40),
        }
    }

    /// Submit a request on behalf of `tenant`; returns the reqid to wait
    /// on.
    pub fn submit(&self, tenant: i64, req: &MiningRequest) -> i64 {
        let reqid = self.next.fetch_add(1, Ordering::Relaxed);
        self.requests
            .send(&self.space, &(reqid, tenant, req.encode()));
        reqid
    }

    /// Block until the response for `reqid` arrives.
    pub fn wait(&self, reqid: i64) -> MiningResponse {
        let (status, payload) = self.responses.recv_for(&self.space, reqid);
        MiningResponse {
            status: Status::from_i64(status).expect("service wrote a valid status"),
            payload,
        }
    }

    /// Submit and wait.
    pub fn request(&self, tenant: i64, req: &MiningRequest) -> MiningResponse {
        let reqid = self.submit(tenant, req);
        self.wait(reqid)
    }
}
