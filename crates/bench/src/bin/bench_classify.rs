//! End-to-end tree-induction benchmark with a machine-readable baseline.
//!
//! Measures, per Table 5.1 dataset: the one-time presort
//! (`ColumnarIndex::build`) and a full tree growth per learner rule
//! (C4.5 gain ratio, CART binary Gini, NyuMiner K=3 Gini) over the
//! dataset's own presort, built before the clock starts. Two tiers:
//!
//! * **fast** — row-capped datasets, enough for a CI smoke gate;
//! * **full** — all rows, plus the wall time of the whole
//!   `experiments -- t5.3` harness (invoked as a sibling binary).
//!
//! ```text
//! bench_classify                    # measure fast+full+t5.3, write BENCH_classify.json
//! bench_classify --fast --out PATH  # measure the fast tier only, write PATH
//! ```
//!
//! Rows are written in the `fpdm.bench.v1` format (`fpdm::loadgen::bench`),
//! every one gated `lower` with a 0.1 ms slack; CI compares the fast
//! tier against the committed file with `cargo run -p xtask -- bench-gate`.

use classify::tree::{DecisionTree, GrowConfig, GrowRule};
use classify::{ColumnarIndex, Dataset, Gini};
use datagen::benchmark;
use fpdm::loadgen::bench::{self, Better, Row, Rows};
use std::time::Instant;

const DATASETS: [&str; 7] = [
    "diabetes",
    "german",
    "mushrooms",
    "satimage",
    "smoking",
    "vote",
    "yeast",
];
const DATA_SEED: u64 = 7;
/// Row cap for the fast tier (CI smoke).
const FAST_ROWS: usize = 600;
/// Below this absolute delta a percentage regression is treated as timer
/// noise (the smallest tracked metrics are ~10 µs).
const SLACK_MS: f64 = 0.1;

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup, untimed
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn rules() -> Vec<(&'static str, GrowRule<'static>)> {
    vec![
        ("c45", GrowRule::C45),
        ("cart", GrowRule::Cart),
        (
            "nyuminer",
            GrowRule::NyuMiner {
                max_branches: 3,
                impurity: &Gini,
            },
        ),
    ]
}

fn row(value: f64) -> Row {
    Row {
        value,
        better: Better::Lower,
        slack: SLACK_MS,
    }
}

/// Measure one tier into `out` under `tier.` key prefixes.
fn measure_tier(tier: &str, row_cap: Option<usize>, reps: usize, out: &mut Rows) {
    let cfg = GrowConfig::default();
    for name in DATASETS {
        let data: Dataset = benchmark(name, DATA_SEED);
        let n = row_cap.map_or(data.len(), |cap| data.len().min(cap));
        let rows: Vec<usize> = (0..n).collect();
        let build_ms = median_ms(reps, || {
            std::hint::black_box(ColumnarIndex::build(&data));
        });
        out.insert(format!("{tier}.{name}.index_build_ms"), row(build_ms));
        data.index();
        for (rule_name, rule) in rules() {
            let ms = median_ms(reps, || {
                std::hint::black_box(DecisionTree::grow(&data, &rows, &rule, &cfg));
            });
            out.insert(format!("{tier}.{name}.{rule_name}_ms"), row(ms));
            eprintln!("  {tier:<5} {name:<10} {rule_name:<9} {ms:9.2} ms ({n} rows)");
        }
    }
}

/// Wall time of the whole Table 5.3 harness, via the sibling
/// `experiments` binary (same build profile). `None` if it is not built.
fn t53_wall_s() -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let experiments = exe.with_file_name("experiments");
    if !experiments.exists() {
        eprintln!("  [t5.3 skipped: {} not built]", experiments.display());
        return None;
    }
    eprintln!("  running {} t5.3 ...", experiments.display());
    let t0 = Instant::now();
    let status = std::process::Command::new(&experiments)
        .arg("t5.3")
        .stdout(std::process::Stdio::null())
        .status()
        .ok()?;
    if !status.success() {
        eprintln!("  [t5.3 failed: {status}]");
        return None;
    }
    Some(t0.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast_only = false;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => fast_only = true,
            "--out" => out_path = it.next().cloned(),
            other => {
                eprintln!("usage: bench_classify [--fast] [--out PATH]");
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut rows = Rows::new();
    eprintln!("fast tier (rows capped at {FAST_ROWS}):");
    measure_tier("fast", Some(FAST_ROWS), 5, &mut rows);
    if !fast_only {
        eprintln!("full tier (all rows):");
        measure_tier("full", None, 5, &mut rows);
        if let Some(wall) = t53_wall_s() {
            eprintln!("  full  t5.3 harness wall {wall:9.1} s");
            rows.insert("full.t5_3_wall_s".to_string(), row(wall));
        }
    }
    // The full run regenerates the committed baseline by default; the
    // fast tier alone is written only where asked, never over it.
    let Some(path) = out_path.or_else(|| (!fast_only).then(|| "BENCH_classify.json".into())) else {
        return;
    };
    if let Err(e) = bench::write(&path, &rows) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path} ({} rows)", rows.len());
}
