//! Local vs socket backend cost, measured, with a committed baseline.
//!
//! ```text
//! cargo run --release --example backend_bench                # measure, write BENCH_backend.json
//! cargo run --release --example backend_bench -- --out PATH  # measure, write PATH
//! ```
//!
//! Three measurement groups, each the median of 5 runs:
//!
//! 1. `out_inp` — one `out` + one `inp` of a small tuple, the
//!    microbench EXPERIMENTS.md tracks for the in-process space, repeated
//!    over the socket backend (each op is one request/response round trip
//!    to an in-process broker).
//! 2. `bulk` — moving a block of tuples through the socket backend,
//!    unbatched (one `out` + one `inp` round trip per tuple) vs batched
//!    (`out_all_deferred` + `flush`, drained with `inp_batch`). The ratio
//!    is the headline win of the batched transport.
//! 3. `plet_lb` — a small PLET-LB protein-motif discovery wall clock,
//!    identical program both ways (`with_space` is the only difference);
//!    over the socket the farm's bulk-take prefetch kicks in.
//!
//! Rows are written in the `fpdm.bench.v1` format (`fpdm::loadgen::bench`):
//! the socket-path rows are gated `lower` beyond timer noise (2 ms, or
//! 500 ns for the `_ns` rows), the local-path rows are context. CI compares
//! a fresh run against the committed file with
//! `cargo run -p xtask -- bench-gate`.

use fpdm::core::ParallelConfig;
use fpdm::datagen::{protein_family, PlantedMotif};
use fpdm::loadgen::bench::{self, Better, Row, Rows};
use fpdm::plinda::{field, tup, Broker, BrokerConfig, Template, TupleSpace};
use fpdm::seqmine::{discover_parallel, DiscoveryParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CYCLES: u64 = 20_000;
/// Tuples moved per bulk run; `BULK_K` per bulk-take round trip.
const BULK_TUPLES: usize = 4_096;
const BULK_K: usize = 32;
const RUNS: usize = 5;
const WORKERS: usize = 4;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Mean nanoseconds per out+inp cycle on `space`.
fn cycle_ns(space: &TupleSpace) -> f64 {
    let tmpl = Template::new(vec![field::val("b"), field::int()]);
    let start = Instant::now();
    for _ in 0..CYCLES {
        space.out(tup!["b", 1]);
        std::hint::black_box(space.inp(&tmpl)).unwrap();
    }
    start.elapsed().as_nanos() as f64 / CYCLES as f64
}

/// Mean nanoseconds per tuple for moving `BULK_TUPLES` tuples through
/// `space` one round trip at a time (two per tuple: out, then inp).
fn bulk_unbatched_ns(space: &TupleSpace) -> f64 {
    let tmpl = Template::new(vec![field::val("blk"), field::int()]);
    let start = Instant::now();
    for i in 0..BULK_TUPLES {
        space.out(tup!["blk", i as i64]);
    }
    for _ in 0..BULK_TUPLES {
        std::hint::black_box(space.inp(&tmpl)).unwrap();
    }
    start.elapsed().as_nanos() as f64 / BULK_TUPLES as f64
}

/// Mean nanoseconds per tuple for the same block through the batched
/// paths: deferred outs coalesced behind one flush, drained `BULK_K`
/// tuples per `inp_batch` round trip.
fn bulk_batched_ns(space: &TupleSpace) -> f64 {
    let tmpl = Template::new(vec![field::val("blk"), field::int()]);
    let start = Instant::now();
    space.out_all_deferred((0..BULK_TUPLES).map(|i| tup!["blk", i as i64]).collect());
    space.flush();
    let mut got = 0;
    while got < BULK_TUPLES {
        let ts = space.inp_batch(&tmpl, BULK_K);
        assert!(!ts.is_empty(), "bulk drain starved at {got}/{BULK_TUPLES}");
        got += ts.len();
    }
    start.elapsed().as_nanos() as f64 / BULK_TUPLES as f64
}

/// Wall time of one PLET-LB discovery run over `space`.
fn mining_wall(space: Option<Arc<TupleSpace>>) -> Duration {
    let family = protein_family(9, 20, 80, 10, &[PlantedMotif::exact("WWHHKK", 0.6)]);
    let params = DiscoveryParams::new(4, 8, 8, 1).with_sample_occurrence(2);
    let mut cfg = ParallelConfig::load_balanced(WORKERS);
    if let Some(s) = space {
        cfg = cfg.with_space(s);
    }
    let start = Instant::now();
    let found = discover_parallel(family, params, &cfg);
    let wall = start.elapsed();
    assert!(!found.is_empty(), "planted motif should be found");
    wall
}

/// Record `key`: socket-path rows are gated beyond an absolute slack of
/// timer noise, per unit (the ns metrics sit in the hundreds of ns);
/// local-path numbers are context.
fn insert(m: &mut Rows, key: &str, value: f64) {
    let (better, slack) = match (key.contains("socket"), key.ends_with("_ms")) {
        (false, _) => (Better::None, 0.0),
        (true, true) => (Better::Lower, 2.0),
        (true, false) => (Better::Lower, 500.0),
    };
    let row = Row {
        value,
        better,
        slack,
    };
    m.insert(key.into(), row);
}

/// Run every measurement group, printing as it goes.
fn measure(broker: &Broker) -> Rows {
    let mut m = Rows::new();

    // --- out_inp_cycle ------------------------------------------------
    let local = TupleSpace::new();
    let socket = TupleSpace::connect_unix(broker.socket()).expect("connect");
    cycle_ns(&local); // warm-up
    cycle_ns(&socket);
    let local_ns = median((0..RUNS).map(|_| cycle_ns(&local)).collect());
    let socket_ns = median((0..RUNS).map(|_| cycle_ns(&socket)).collect());
    println!("out_inp_cycle ({CYCLES} cycles, median of {RUNS}):");
    println!("  local   {local_ns:8.0} ns/cycle");
    println!(
        "  socket  {socket_ns:8.0} ns/cycle  ({:.0}x, 2 round trips)",
        socket_ns / local_ns
    );
    insert(&mut m, "out_inp.local_ns", local_ns);
    insert(&mut m, "out_inp.socket_ns", socket_ns);

    // --- bulk throughput over the socket ------------------------------
    bulk_batched_ns(&socket); // warm-up
    let unbatched = median((0..RUNS).map(|_| bulk_unbatched_ns(&socket)).collect());
    let batched = median((0..RUNS).map(|_| bulk_batched_ns(&socket)).collect());
    println!("bulk transfer, socket ({BULK_TUPLES} tuples, median of {RUNS}):");
    println!("  unbatched {unbatched:8.0} ns/tuple  (2 round trips each)");
    println!(
        "  batched   {batched:8.0} ns/tuple  (deferred outs + inp_batch x{BULK_K}, {:.1}x faster)",
        unbatched / batched
    );
    insert(&mut m, "bulk.socket_unbatched_ns", unbatched);
    insert(&mut m, "bulk.socket_batched_ns", batched);

    // --- PLET-LB wall clock -------------------------------------------
    let local_wall = median(
        (0..RUNS)
            .map(|_| mining_wall(None).as_secs_f64() * 1e3)
            .collect(),
    );
    let socket_wall = median(
        (0..RUNS)
            .map(|_| {
                let space = TupleSpace::connect_unix(broker.socket()).expect("connect");
                mining_wall(Some(Arc::new(space))).as_secs_f64() * 1e3
            })
            .collect(),
    );
    println!("PLET-LB protein discovery, {WORKERS} workers (median of {RUNS}):");
    println!("  local   {local_wall:8.1} ms");
    println!(
        "  socket  {socket_wall:8.1} ms  ({:.1}x)",
        socket_wall / local_wall
    );
    insert(&mut m, "plet_lb.local_ms", local_wall);
    insert(&mut m, "plet_lb.socket_ms", socket_wall);
    m
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => "BENCH_backend.json".to_string(),
        [flag, path] if flag == "--out" => path.clone(),
        _ => {
            eprintln!("usage: backend_bench [--out PATH]");
            std::process::exit(2);
        }
    };

    let sock = std::env::temp_dir().join(format!("fpdm-bench-{}.sock", std::process::id()));
    let broker = Broker::start(BrokerConfig::new(&sock)).expect("start broker");
    let rows = measure(&broker);
    if let Err(e) = bench::write(&out_path, &rows) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");
}
