//! `servebench` — wall-clock benchmark of the served mining path.
//!
//! A real `MiningService` answers real `ServiceClient`s; every request
//! crosses an `fpdm-spaced` broker running in its own OS process. One
//! load-generator thread drives a closed loop for `--seconds`, checks
//! every response byte for byte against a direct library call, and prints
//! one JSON object as its last line of output.
//!
//! ```text
//! servebench --workload <serve_light|serve_farm> --seed N --seconds S --trace <0|1> --broker <fpdm-spaced>
//! servebench refs --workload W --seed N                     (internal: reference answers)
//! servebench setup --workload W --seed N --broker <path>    (internal: one timed set-up)
//! servebench probe                                          (internal: the host-speed probe)
//! ```
//!
//! The reference answers and all but the last timed set-up run in child
//! processes of their own, so the harness's peak RSS covers only the
//! set-up it serves from and the measured window. Run it through `run.py`,
//! which builds it and the broker and pins the process tree to one CPU.
//! `NOTES.md` explains the workloads and the metrics.

mod host;
mod layers;
mod shapes;
mod stats;
mod sys;

use fpdm::service::{
    AdmissionConfig, DatasetCatalog, JobPlane, MiningRequest, MiningService, ServiceClient,
    ServiceConfig, Status,
};
use shapes::{Workload, VARIANTS};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{exit, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sys::BrokerProcess;

/// Timed set-ups per run, each in a fresh process; `setup_s` is their
/// median.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The benchmark run itself.
    Run,
    /// Write the reference answers to stdout.
    Refs,
    /// Make one set-up, print its durations, and tear it down.
    Setup,
}

struct Args {
    workload: Workload,
    seed: u64,
    /// The `fpdm-spaced` executable (not needed by `refs`).
    broker: PathBuf,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload <serve_light|serve_farm> --seed N --seconds S --trace <0|1> --broker <fpdm-spaced>";

fn parse_args(mode: Mode, args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer".to_string())?;
    let broker = match mode {
        Mode::Refs => PathBuf::new(),
        Mode::Run | Mode::Setup => PathBuf::from(value("--broker")?),
    };
    let (mut seconds, mut trace) = (0.0_f64, false);
    if mode == Mode::Run {
        seconds = value("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number".to_string())?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
    }
    Ok(Args {
        workload,
        seed,
        broker,
        seconds,
        trace,
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("probe") {
        if let Err(e) = host::serve() {
            eprintln!("servebench: {e}");
            exit(1);
        }
        return;
    }
    let mode = match args.first().map(String::as_str) {
        Some("refs") => Mode::Refs,
        Some("setup") => Mode::Setup,
        _ => Mode::Run,
    };
    if mode != Mode::Run {
        args.remove(0);
    }
    let args = match parse_args(mode, &args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let outcome = match mode {
        Mode::Run => run(&args),
        Mode::Refs => write_refs(&args).map(|()| true),
        Mode::Setup => set_up(&args, "setup").map(|served| {
            let t = served.times;
            println!("{:?} {:?} {:?}", t.total_s, t.datagen_s, t.index_build_ms);
            served.tear_down();
            true
        }),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            exit(1);
        }
    }
}

/// Durations of one set-up.
#[derive(Clone, Copy)]
pub struct SetupTimes {
    total_s: f64,
    datagen_s: f64,
    index_build_ms: f64,
    /// Host factor around the set-up ([`host`]), filled in by the harness.
    host_factor: f64,
}

/// A running service with its broker and a connected client.
pub struct Served {
    pub service: MiningService,
    pub client: ServiceClient,
    pub catalog: Arc<DatasetCatalog>,
    pub broker: BrokerProcess,
    times: SetupTimes,
}

/// One full set-up: generate the catalog from the seed, start the broker
/// process, connect, start the service, build every columnar index, and
/// send one warm-up request of every shape of this workload against every
/// dataset variant (so that the set-up's cost averages over the variants,
/// as the window's does).
fn set_up(args: &Args, tag: &str) -> Result<Served, String> {
    let t0 = Instant::now();
    let catalog = Arc::new(shapes::catalog(args.seed));
    let datagen_s = t0.elapsed().as_secs_f64();
    let broker = BrokerProcess::spawn(&args.broker, tag)?;
    let service = start_service(&catalog, &broker, args.workload.plane())?;
    let t_index = Instant::now();
    let registry = service.registry();
    for name in catalog.names() {
        if let Some(table) = catalog.table(&name) {
            table.index(&registry);
        }
    }
    let index_build_ms = t_index.elapsed().as_secs_f64() * 1e3;
    let client = ServiceClient::new(broker.connect()?, 1);
    for shape in args.workload.shapes() {
        for v in 0..VARIANTS {
            let resp = client.request(0, &shape.request(v));
            if resp.status != Status::Ok {
                return Err(format!("warm-up {} failed: {}", shape.name, resp.text()));
            }
        }
    }
    Ok(Served {
        service,
        client,
        catalog,
        broker,
        times: SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            datagen_s,
            index_build_ms,
            host_factor: 1.0,
        },
    })
}

/// A service over `catalog` whose request plane is `broker`, running its
/// jobs' farms in `plane`.
pub fn start_service(
    catalog: &Arc<DatasetCatalog>,
    broker: &BrokerProcess,
    plane: JobPlane,
) -> Result<MiningService, String> {
    let cfg = ServiceConfig {
        admission: AdmissionConfig::default(),
        executors: 2,
        job_workers: 2,
        plane,
        gate_batch: 16,
    };
    Ok(MiningService::start(
        cfg,
        Arc::clone(catalog),
        broker.connect()?,
    ))
}

impl Served {
    /// Stop the service, then the broker.
    fn tear_down(self) {
        self.service.shutdown();
        drop(self.client);
        drop(self.broker);
    }
}

/// Run this executable in an internal mode for `args`, and return its
/// standard output.
fn child(mode: &str, args: &Args) -> Result<Vec<u8>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([mode, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--broker")
        .arg(&args.broker)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {mode}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child failed: {}", out.status));
    }
    Ok(out.stdout)
}

/// Durations of one set-up made in a child process.
fn set_up_elsewhere(args: &Args) -> Result<SetupTimes, String> {
    let out = String::from_utf8(child("setup", args)?).map_err(|e| e.to_string())?;
    let v: Vec<f64> = out
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("setup child printed {out:?}: {e}"))?;
    match v[..] {
        [total_s, datagen_s, index_build_ms] => Ok(SetupTimes {
            total_s,
            datagen_s,
            index_build_ms,
            host_factor: 1.0,
        }),
        _ => Err(format!("setup child printed {out:?}")),
    }
}

/// The seeded request order: rounds of one request per shape, in a
/// shuffled order, each shape walking its dataset variants in a shuffled
/// order. Any window therefore sees the shapes evenly mixed.
struct Order {
    rng: u64,
    round: Vec<usize>,
    variants: [Vec<usize>; 3],
}

impl Order {
    fn new(seed: u64) -> Order {
        Order {
            rng: seed ^ 0x05ee_d0f0_bde5,
            round: Vec::new(),
            variants: Default::default(),
        }
    }

    /// splitmix64.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }

    /// The next (shape, variant) pair.
    fn next(&mut self) -> (usize, usize) {
        if self.round.is_empty() {
            self.round = self.shuffled(3);
        }
        let s = self.round.pop().expect("refilled above");
        if self.variants[s].is_empty() {
            self.variants[s] = self.shuffled(VARIANTS);
        }
        (s, self.variants[s].pop().expect("refilled above"))
    }
}

/// One request's span, submit → wait, kept in memory by traced windows.
pub struct Span {
    reqid: i64,
    shape: &'static str,
    variant: usize,
    submit_ns: u64,
    done_ns: u64,
}

/// What one measured window saw.
#[derive(Default)]
pub struct Window {
    /// Client latencies (ms) of the counted requests.
    pub latencies_ms: Vec<f64>,
    /// When each counted request completed, in seconds into the window.
    done_s: Vec<f64>,
    /// Counted requests over the counted span.
    pub ops_per_s: f64,
    /// Host-speed probes over the counted span.
    host: host::Timeline,
    /// Harness + broker `VmHWM` (MiB) when the workload's
    /// [`Workload::rss_after`]-th counted request completed.
    rss_mb: Option<f64>,
    attempted: u64,
    failed: u64,
    sheds: u64,
    errors: u64,
    mismatches: u64,
    spans: Vec<Span>,
}

/// The requests of a workload against every variant, and their
/// reference answers.
struct Requests {
    shapes: [shapes::Shape; 3],
    reqs: Vec<Vec<MiningRequest>>,
    refs: Vec<Vec<Vec<u8>>>,
}

impl Requests {
    fn build(w: Workload) -> (Vec<Vec<MiningRequest>>, [shapes::Shape; 3]) {
        let shapes = w.shapes();
        let reqs = shapes
            .iter()
            .map(|s| (0..VARIANTS).map(|v| s.request(v)).collect())
            .collect();
        (reqs, shapes)
    }

    /// The requests, with reference answers computed by a `refs` child
    /// process, outside the timed set-up and outside this process's
    /// memory.
    fn load(args: &Args) -> Result<Requests, String> {
        let (reqs, shapes) = Requests::build(args.workload);
        let out = child("refs", args)?;
        let mut rest = out.as_slice();
        let mut take = |n: usize| -> Result<&[u8], String> {
            if rest.len() < n {
                return Err("refs child output is truncated".into());
            }
            let (head, tail) = rest.split_at(n);
            rest = tail;
            Ok(head)
        };
        let mut refs = Vec::with_capacity(reqs.len());
        for rs in &reqs {
            let mut answers = Vec::with_capacity(rs.len());
            for _ in rs {
                let len = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
                answers.push(take(len as usize)?.to_vec());
            }
            refs.push(answers);
        }
        Ok(Requests { shapes, reqs, refs })
    }
}

/// The `refs` mode: compute every request's answer with a direct library
/// call on a catalog generated from the seed, and write them to stdout,
/// each as a little-endian `u64` length and the bytes.
fn write_refs(args: &Args) -> Result<(), String> {
    let cat = shapes::catalog(args.seed);
    let (reqs, _) = Requests::build(args.workload);
    let mut out = Vec::new();
    for req in reqs.iter().flatten() {
        let answer = shapes::direct(&cat, req);
        out.extend_from_slice(&(answer.len() as u64).to_le_bytes());
        out.extend_from_slice(&answer);
    }
    std::io::stdout()
        .lock()
        .write_all(&out)
        .map_err(|e| format!("write refs: {e}"))
}

/// Drive the closed loop for `seconds`: keep `w.outstanding()` requests
/// in flight, wait for the oldest, check it, send the next. Requests that
/// complete before the deadline (and the first one after it) are counted;
/// the rest are drained and checked but not timed. The host-speed probe
/// runs at the start, after every `w.probe_every()` counted requests, and
/// at the end.
fn drive(
    served: &Served,
    probe: &mut host::Probe,
    w: Workload,
    requests: &Requests,
    order: &mut Order,
    seconds: f64,
    trace: bool,
) -> Window {
    let client = &served.client;
    let mut win = Window::default();
    let mut inflight: VecDeque<(i64, usize, usize, Instant)> = VecDeque::new();
    let mut tenant = 0i64;
    let mut submit = |inflight: &mut VecDeque<_>| {
        let (s, v) = order.next();
        let sent = Instant::now();
        let reqid = client.submit(tenant, &requests.reqs[s][v]);
        tenant = (tenant + 1) % w.tenants();
        inflight.push_back((reqid, s, v, sent));
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    win.host.push(0.0, probe.factor());
    for _ in 0..w.outstanding() {
        submit(&mut inflight);
    }
    let mut counting = true;
    let mut end = start;
    while let Some((reqid, s, v, sent)) = inflight.pop_front() {
        let resp = client.wait(reqid);
        let done = Instant::now();
        win.attempted += 1;
        match resp.status {
            Status::Ok if resp.payload == requests.refs[s][v] => {}
            Status::Ok => win.mismatches += 1,
            Status::Shed => win.sheds += 1,
            Status::Error => win.errors += 1,
        }
        if !counting {
            continue;
        }
        win.latencies_ms
            .push(done.duration_since(sent).as_secs_f64() * 1e3);
        win.done_s.push(done.duration_since(start).as_secs_f64());
        if win.latencies_ms.len() % w.probe_every() == 0 {
            let t = Instant::now().duration_since(start).as_secs_f64();
            win.host.push(t, probe.factor());
        }
        if win.latencies_ms.len() == w.rss_after() {
            win.rss_mb = Some(peak_rss_mb(served));
        }
        if trace {
            win.spans.push(Span {
                reqid,
                shape: requests.shapes[s].name,
                variant: v,
                submit_ns: sent.duration_since(start).as_nanos() as u64,
                done_ns: done.duration_since(start).as_nanos() as u64,
            });
        }
        end = done;
        if done < deadline {
            submit(&mut inflight);
        } else {
            counting = false;
        }
    }
    win.host
        .push(end.duration_since(start).as_secs_f64(), probe.factor());
    win.failed = win.sheds + win.errors + win.mismatches;
    win.ops_per_s = win.latencies_ms.len() as f64 / end.duration_since(start).as_secs_f64();
    win
}

/// A window's end-to-end figures on the reference host ([`host`]).
struct Adjusted {
    ops_per_s: f64,
    /// Each request's latency times the host factor around its midpoint,
    /// ascending.
    latencies_ms: Vec<f64>,
}

impl Window {
    fn adjusted(&self) -> Adjusted {
        let mut latencies_ms: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&self.done_s)
            .map(|(&ms, &done)| ms * self.host.at(done - ms / 2e3))
            .collect();
        latencies_ms.sort_by(f64::total_cmp);
        let end = self.done_s.last().copied().unwrap_or(0.0);
        Adjusted {
            ops_per_s: self.latencies_ms.len() as f64 / self.host.reference_seconds(0.0, end),
            latencies_ms,
        }
    }
}

/// Harness + broker peak resident set, in MiB.
fn peak_rss_mb(served: &Served) -> f64 {
    sys::peak_rss_mb(std::process::id()) + sys::peak_rss_mb(served.broker.pid())
}

/// A named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Probe passes before and after each set-up; the set-up's host factor
/// is the mean of the two medians.
const SETUP_PROBES: usize = 5;

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let requests = Requests::load(args)?;
    let mut probe = host::Probe::spawn()?;

    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut timed_set_up = |f: &mut dyn FnMut() -> Result<SetupTimes, String>| {
        let before = probe.median_factor(SETUP_PROBES);
        let mut t = f()?;
        let after = probe.median_factor(SETUP_PROBES);
        t.host_factor = (before + after) / 2.0;
        times.push(t);
        Ok::<_, String>(())
    };
    for _ in 1..SETUP_REPS {
        timed_set_up(&mut || set_up_elsewhere(args))?;
    }
    let mut served = None;
    timed_set_up(&mut || {
        let s = set_up(args, "run")?;
        let t = s.times;
        served = Some(s);
        Ok(t)
    })?;
    let served = served.expect("set up above");
    let setup = |f: fn(&SetupTimes) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());

    let cpus = sys::cpus_allowed(std::process::id());
    let broker_cpus = sys::cpus_allowed(served.broker.pid());
    let steal0 = sys::steal_jiffies(&cpus);
    let mut order = Order::new(args.seed);

    let (win, metrics) = if args.trace {
        // Untraced and traced halves back to back on the same service:
        // their throughput difference is the tracing overhead.
        let half = args.seconds / 2.0;
        let untraced = drive(&served, &mut probe, w, &requests, &mut order, half, false);
        let before = served.service.registry().snapshot();
        let traced = drive(&served, &mut probe, w, &requests, &mut order, half, true);
        let after = served.service.registry().snapshot();
        let mut metrics = layers::measure(w, &args.broker, &served, &traced, &before, &after)?;
        metrics.push(metric("catalog.datagen_s", setup(|t| t.datagen_s), "s"));
        metrics.push(metric(
            "catalog.index_build_ms",
            setup(|t| t.index_build_ms),
            "ms",
        ));
        let (u, t) = (untraced.adjusted().ops_per_s, traced.adjusted().ops_per_s);
        metrics.push(metric("trace.overhead_frac", (u - t) / u, "ratio"));
        write_spans(w, args.seed, &traced.spans)?;
        (merge(untraced, traced, half), metrics)
    } else {
        let win = drive(
            &served,
            &mut probe,
            w,
            &requests,
            &mut order,
            args.seconds,
            false,
        );
        let a = win.adjusted();
        let rss = win.rss_mb.unwrap_or_else(|| peak_rss_mb(&served));
        let metrics = vec![
            metric("setup_s", setup(|t| t.total_s * t.host_factor), "s"),
            metric("ops_per_s", a.ops_per_s, "1/s"),
            metric(
                "latency_p50_ms",
                stats::percentile(&a.latencies_ms, 50.0),
                "ms",
            ),
            metric(
                "latency_tail_ms",
                stats::percentile(&a.latencies_ms, w.tail_pct()),
                "ms",
            ),
            metric("peak_rss_mb", rss, "MiB"),
        ];
        (win, metrics)
    };
    let steal1 = sys::steal_jiffies(&cpus);
    let harness_mb = sys::peak_rss_mb(std::process::id());
    let broker_mb = sys::peak_rss_mb(served.broker.pid());
    served.tear_down();

    let steal_share = (steal1.0 - steal0.0) as f64 / ((steal1.1 - steal0.1).max(1)) as f64;
    let setup_reps: Vec<String> = times
        .iter()
        .map(|t| format!("{:.4}@{:.3}", t.total_s, t.host_factor))
        .collect();
    let n = win.latencies_ms.len();
    let mut raw_ms = win.latencies_ms.clone();
    raw_ms.sort_by(f64::total_cmp);
    println!(
        "# servebench workload={} seed={} seconds={} trace={} cpus_allowed={cpus} broker_cpus_allowed={broker_cpus} nproc_all={} steal_share={steal_share:.4} peak_rss_harness_mb={harness_mb:.1} peak_rss_broker_mb={broker_mb:.1}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::machine_cpus(),
    );
    println!(
        "# tail=p{} samples={n} beyond_tail={} probes={} host_factor_median={:.3} unadjusted_ops_per_s={:.3} unadjusted_latency_p50_ms={:.4} unadjusted_latency_tail_ms={:.4}",
        w.tail_pct(),
        stats::beyond(n, w.tail_pct()),
        win.host.len(),
        win.host.median(),
        win.ops_per_s,
        stats::percentile(&raw_ms, 50.0),
        stats::percentile(&raw_ms, w.tail_pct()),
    );
    println!(
        "# rss_at_request={} setup_s_reps={} attempted={} succeeded={} failed={} sheds={} errors={} mismatches={}",
        if win.rss_mb.is_some() { w.rss_after() } else { n },
        setup_reps.join(","),
        win.attempted,
        win.attempted - win.failed,
        win.failed,
        win.sheds,
        win.errors,
        win.mismatches,
    );
    let correct = win.mismatches == 0 && win.errors == 0 && n > 0;
    println!(
        "{}",
        result_json(correct, win.attempted, win.failed, &metrics)
    );
    Ok(correct)
}

/// Counts of two windows of one run, the second starting `offset_s`
/// after the first, for the run's totals.
fn merge(a: Window, b: Window, offset_s: f64) -> Window {
    let mut latencies_ms = a.latencies_ms;
    latencies_ms.extend(b.latencies_ms);
    let mut done_s = a.done_s;
    done_s.extend(b.done_s.iter().map(|t| t + offset_s));
    Window {
        latencies_ms,
        done_s,
        ops_per_s: b.ops_per_s,
        host: a.host.then(b.host, offset_s),
        rss_mb: None,
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        sheds: a.sheds + b.sheds,
        errors: a.errors + b.errors,
        mismatches: a.mismatches + b.mismatches,
        spans: Vec::new(),
    }
}

fn write_spans(w: Workload, seed: u64, spans: &[Span]) -> Result<(), String> {
    let mut text = String::from("reqid\tshape\tvariant\tsubmit_ns\tdone_ns\n");
    for s in spans {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}",
            s.reqid, s.shape, s.variant, s.submit_ns, s.done_ns
        );
    }
    let path = format!("{}/spans-{}-{seed}.tsv", sys::OUT_DIR, w.name());
    std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust prints (`NaN`/infinite
/// values, which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
