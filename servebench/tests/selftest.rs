//! Harness self-test: two traced runs with the same seed must report the
//! same count-type per-layer metrics, shape by shape.
//!
//! Three transport counts are not exact in the program itself: when one
//! farm worker's batched take grabs both poison pills it puts one back
//! (`TaskFarm` worker loop), an extra `out` and batched op whose
//! occurrence depends on thread timing, and a deferred-out flush may ride
//! an explicit `Flush` or a later blocking call. Those three may differ by
//! at most one operation per request of a shape; every other count must
//! match exactly.
//!
//! The runs go through `run.py`, as the benchmark is run, so the test
//! also builds the broker.

use std::process::Command;

/// One traced run: `(name, value, unit)` of every metric, and the
/// `# counts` line of each of the workload's shapes.
struct Traced {
    metrics: Vec<(String, f64, String)>,
    counts: Vec<String>,
}

fn traced_run(workload: &str, seed: u64) -> Traced {
    let out = Command::new("python3")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["servebench/run.py", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .output()
        .expect("run servebench/run.py");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Traced {
        metrics: parse_metrics(last),
        counts: stdout
            .lines()
            .filter(|l| l.starts_with("# counts "))
            .map(str::to_string)
            .collect(),
    }
}

/// The `metrics` object of a result line, as the harness writes it:
/// `"name": {"value": V, "unit": "U"}` entries separated by `, `.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let (_, body) = line.split_once("\"metrics\": {").expect("metrics object");
    body.trim_end_matches('}')
        .split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
            let (value, unit) = rest.split_once(", \"unit\": ").expect("unit field");
            (
                name.trim_start_matches('"').to_string(),
                value.parse().expect("numeric value"),
                unit.trim_matches('"').to_string(),
            )
        })
        .collect()
}

/// Counts the program makes timing-dependent by at most one operation
/// per request (see the module docs).
const RACY: [&str; 3] = [
    "space.outs_per_request",
    "net.batch_ops_per_request",
    "net.deferred_flushes_per_request",
];

/// `(name, value)` pairs of a `# counts shape=<s> name=v ...` line.
fn parse_counts(line: &str) -> Vec<(String, String)> {
    line.trim_start_matches("# counts ")
        .split(' ')
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("name=value");
            (k.to_string(), v.to_string())
        })
        .collect()
}

#[test]
fn count_metrics_repeat_across_same_seed_runs() {
    for workload in ["serve_light", "serve_farm"] {
        let a = traced_run(workload, 11);
        let b = traced_run(workload, 11);

        // Per shape: racy counts within one operation, the rest exact.
        assert_eq!(a.counts.len(), 3, "{workload}: {:?}", a.counts);
        assert_eq!(
            a.counts.len(),
            b.counts.len(),
            "{workload}: shape sets differ"
        );
        for (la, lb) in a.counts.iter().zip(&b.counts) {
            for ((name, va), (name_b, vb)) in parse_counts(la).iter().zip(&parse_counts(lb)) {
                assert_eq!(name, name_b, "{workload}: {la} vs {lb}");
                if RACY.contains(&name.as_str()) {
                    let (va, vb): (i64, i64) = (va.parse().unwrap(), vb.parse().unwrap());
                    assert!((va - vb).abs() <= 1, "{workload}: {la} vs {lb}");
                } else {
                    assert_eq!(va, vb, "{workload}: {la} vs {lb}");
                }
            }
        }

        // Every other count-type metric exactly.
        let counts = |run: &Traced| -> Vec<(String, f64)> {
            run.metrics
                .iter()
                .filter(|(name, _, unit)| unit == "count" && !RACY.contains(&name.as_str()))
                .map(|(name, v, _)| (name.clone(), *v))
                .collect()
        };
        let (ca, cb) = (counts(&a), counts(&b));
        assert!(ca.len() >= 6, "{workload}: too few count metrics: {ca:?}");
        assert_eq!(
            ca, cb,
            "{workload}: count metrics differ between same-seed runs"
        );
    }
}
