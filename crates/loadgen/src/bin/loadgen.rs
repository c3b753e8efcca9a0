//! `loadgen` — replay owner-activity request traces against the service's
//! admission controller in virtual time.
//!
//!     loadgen [--profile smoke|full] [--requests N] [--seed N]
//!             [--run-slots N] [--out PATH]
//!
//! Prints the report(s); with `--out`, also writes them as
//! `fpdm.bench.v1` rows (`<profile>_*` keys) for `xtask bench-gate` to
//! compare against the committed `BENCH_service.json`. The replay is
//! virtual-time deterministic, so a clean tree reproduces the committed
//! numbers exactly. Without `--profile`, both profiles run (that is how
//! the committed baseline carrying both key sets is produced).

use fpdm_loadgen::bench::{self, Better, Row, Rows};
use fpdm_loadgen::{owner_activity_trace, run, LoadReport, SimConfig, TraceConfig};
use plinda::metrics::MetricsRegistry;

struct Profile {
    name: &'static str,
    requests: usize,
    tenants: usize,
    horizon_secs: f64,
}

/// The two committed profiles. Offered load sits above the default
/// capacity of 4 slots × ~4 ms mean cost (≈1000 req/s) during activity
/// bursts, so both profiles exercise queueing and shedding.
const PROFILES: [Profile; 2] = [
    Profile {
        name: "smoke",
        requests: 250_000,
        tenants: 16,
        horizon_secs: 350.0,
    },
    Profile {
        name: "full",
        requests: 1_000_000,
        tenants: 32,
        horizon_secs: 1400.0,
    },
];

fn replay(profile: &Profile, seed: u64, requests: usize, run_slots: usize) -> LoadReport {
    let trace = owner_activity_trace(&TraceConfig::new(
        seed,
        profile.tenants,
        profile.horizon_secs,
        requests,
    ));
    let mut cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    cfg.admission.run_slots = run_slots;
    let reg = MetricsRegistry::new();
    let report = run(&trace, &cfg, &reg);
    let problems = plinda::metrics::check_snapshot(&reg.snapshot());
    assert!(
        problems.is_empty(),
        "ledger invariants violated: {problems:?}"
    );
    report
}

fn print_report(name: &str, r: &LoadReport, wall: std::time::Duration) {
    println!(
        "{name}: {} requests -> {} completed, {} shed ({} ppm)",
        r.requests, r.completed, r.shed, r.shed_ppm
    );
    println!(
        "{name}: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        r.p50_ns as f64 / 1e6,
        r.p99_ns as f64 / 1e6,
        r.max_ns as f64 / 1e6
    );
    println!(
        "{name}: {:.1} req/s over {:.1} virtual s ({:.2} wall s)",
        r.throughput_rps,
        r.makespan_ns as f64 / 1e9,
        wall.as_secs_f64()
    );
}

/// A profile's report as benchmark rows: p99 latency and throughput are
/// gated (slack 0, the replay is exact); the rest are context.
fn bench_rows(name: &str, r: &LoadReport, out: &mut Rows) {
    let mut put = |metric: &str, value: f64, better| {
        let row = Row {
            value,
            better,
            slack: 0.0,
        };
        out.insert(format!("{name}_{metric}"), row);
    };
    put("requests", r.requests as f64, Better::None);
    put("completed", r.completed as f64, Better::None);
    put("p50_ns", r.p50_ns as f64, Better::None);
    put("p99_ns", r.p99_ns as f64, Better::Lower);
    put("throughput_rps", r.throughput_rps, Better::Higher);
    put("shed_ppm", r.shed_ppm as f64, Better::None);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile_filter: Option<String> = None;
    let mut requests_override: Option<usize> = None;
    let mut seed = 1u64;
    let mut run_slots = 4usize;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => profile_filter = it.next().cloned(),
            "--requests" => requests_override = it.next().and_then(|v| v.parse().ok()),
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--run-slots" => {
                run_slots = it.next().and_then(|v| v.parse().ok()).unwrap_or(run_slots)
            }
            "--out" => out_path = it.next().cloned(),
            other => {
                eprintln!(
                    "usage: loadgen [--profile smoke|full] [--requests N] [--seed N] \
                     [--run-slots N] [--out PATH]"
                );
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let selected: Vec<&Profile> = PROFILES
        .iter()
        .filter(|p| profile_filter.as_deref().is_none_or(|f| f == p.name))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no such profile {:?}; available: smoke, full",
            profile_filter.unwrap_or_default()
        );
        std::process::exit(2);
    }

    let mut rows = Rows::new();
    for p in &selected {
        let requests = requests_override.unwrap_or(p.requests);
        let t0 = std::time::Instant::now();
        let r = replay(p, seed, requests, run_slots);
        print_report(p.name, &r, t0.elapsed());
        bench_rows(p.name, &r, &mut rows);
    }
    if let Some(path) = out_path {
        if let Err(e) = bench::write(&path, &rows) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
}
