//! Workspace task runner. Four tasks:
//!
//! ```text
//! cargo run -p xtask -- analyze [ROOT] [--json PATH]
//! cargo run --release -p xtask -- metrics-smoke
//! cargo run -p xtask -- changes-check [PATH]
//! cargo run -p xtask -- bench-gate BASELINE FRESH
//! ```
//!
//! `analyze` runs the whole-workspace static analysis (`fpdm-analyze`):
//! tuple-flow checks, transaction discipline, and protocol-duality
//! verification. It prints human diagnostics, optionally writes the
//! frozen `fpdm.lint.v1` JSON report (`--json PATH`, `-` for stdout),
//! and exits non-zero if any error-severity finding is not covered by
//! the root's `fpdm-analyze.allow` file.
//!
//! `metrics-smoke` is the CI observability gate: it runs a small metered
//! task farm twice — over the in-process backend and over an in-process
//! `fpdm-spaced`-style broker via the socket backend — validates both
//! resulting `MetricsSnapshot`s against the frozen golden schema (decode,
//! round-trip, cross-layer invariants), and measures that the
//! instrumentation-*off* tuple-space fast path costs no more than the
//! documented envelope (~100 ns/event) over a space that never had a sink
//! installed — both for a space whose metrics registry was removed and for
//! one whose trace recorder was removed, since both sinks share the one
//! probe flag. Run it under `--release`; debug timings are dominated by
//! unoptimised match code.
//!
//! `changes-check` audits `CHANGES.md`: every entry must be a
//! `- PR <n>: ...` line or a `FOUND: ...` / `MENDED: ...` finding note,
//! and the PR numbers must be contiguous `1..=max` with no duplicates, so
//! a session that forgets (or double-writes) its changelog line fails CI
//! instead of leaving a silent gap.
//!
//! `bench-gate` is the one regression gate over the committed
//! `fpdm.bench.v1` baselines (`fpdm_loadgen::bench`): it compares every
//! row of a fresh producer run (`bench_classify`, `backend_bench`,
//! `loadgen`, each with `--out`) that has a baseline row, prints the
//! table, and exits 1 on any regression and 2 on a file it cannot use.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use fpdm_loadgen::bench::{self, Better};
use plinda::metrics::check_snapshot;
use plinda::{
    field, tup, Broker, BrokerConfig, FarmConfig, MetricsRegistry, MetricsSnapshot, Recorder,
    TaskFarm, Template, TupleSpace,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("metrics-smoke") => metrics_smoke(),
        Some("changes-check") => changes_check(args.get(1).map(String::as_str)),
        Some("bench-gate") if args.len() == 3 => bench_gate(&args[1], &args[2]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- analyze [ROOT] [--json PATH]\n       \
                 cargo run --release -p xtask -- metrics-smoke\n       \
                 cargo run -p xtask -- changes-check [PATH]\n       \
                 cargo run -p xtask -- bench-gate BASELINE FRESH"
            );
            ExitCode::from(2)
        }
    }
}

/// Run the static analyzer over ROOT (default: the workspace), print
/// diagnostics, optionally export the `fpdm.lint.v1` report, and map
/// unallowed error findings to a failing exit code.
fn analyze(args: &[String]) -> ExitCode {
    let mut root = None;
    let mut json_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("analyze: --json needs a path ('-' for stdout)");
                    return ExitCode::from(2);
                }
            }
        } else {
            root = Some(PathBuf::from(arg));
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));

    let report = match fpdm_analyze::analyze_dir(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.findings {
        println!("{}", f.render());
    }
    let s = &report.stats;
    println!(
        "analyze: {} files, {} templates ({} dynamic), {} productions, {} ops, \
         {} txn events; proto: {} configs, {} deliveries; {} finding(s)",
        s.files,
        s.templates,
        s.dynamic_templates,
        s.productions,
        s.ops,
        s.txn_events,
        s.proto_configs,
        s.proto_deliveries,
        report.findings.len()
    );
    if let Some(path) = json_path {
        let json = report.to_json();
        if path.as_os_str() == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("analyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.failures().next().is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Per-event cost envelope for the instrumentation-disabled fast path (one
/// relaxed atomic load), in nanoseconds. DESIGN.md documents this gate.
const OFF_ENVELOPE_NS: f64 = 100.0;

/// Run the 64-task smoke farm over `space` (`None` = in-process backend)
/// and return the resulting metered snapshot, or `None` on farm failure.
fn smoke_farm(label: &str, space: Option<Arc<TupleSpace>>) -> Option<MetricsSnapshot> {
    let reg = MetricsRegistry::new();
    let mut cfg = FarmConfig::bag(2).with_metrics(reg.clone());
    if let Some(s) = space {
        cfg = cfg.with_space(s);
    }
    let farm = TaskFarm::<i64, i64>::start("smoke", cfg, |scope, _flag, n| {
        scope.result(&(n + 1));
        Ok(())
    });
    for i in 0..64i64 {
        farm.send(0, &i);
    }
    for _ in 0..64 {
        farm.recv();
    }
    let report = farm.finish();
    if !report.leaked.is_empty() {
        eprintln!(
            "metrics-smoke: {label} farm leaked tuples: {:?}",
            report.leaked
        );
        return None;
    }
    Some(reg.snapshot())
}

/// Validate one run's snapshot against the frozen golden schema: the
/// fixture decodes, the export carries the identical schema header and
/// round-trips, the cross-layer invariants hold, and the worker cells
/// account for exactly the 64 dispatched tasks.
fn validate_snapshot(label: &str, snap: &MetricsSnapshot, fixture: Option<&str>) -> bool {
    let mut failed = false;
    if let Some(fixture) = fixture {
        let json = snap.to_json();
        if json.lines().nth(1) != fixture.lines().nth(1) {
            eprintln!("metrics-smoke: {label} schema header differs from golden fixture");
            failed = true;
        }
        match MetricsSnapshot::from_json(&json) {
            Ok(back) if back == *snap => {}
            Ok(_) => {
                eprintln!("metrics-smoke: {label} snapshot did not round-trip losslessly");
                failed = true;
            }
            Err(e) => {
                eprintln!("metrics-smoke: {label} snapshot export does not decode: {e}");
                failed = true;
            }
        }
    }
    for v in check_snapshot(snap) {
        eprintln!("metrics-smoke: {label} invariant violation: {v}");
        failed = true;
    }
    let tasks = snap.sum_counters(|k| k.contains(".worker.") && k.ends_with(".tasks"));
    if tasks != 64 {
        eprintln!("metrics-smoke: {label} workers account for {tasks} tasks, expected 64");
        failed = true;
    }
    if !failed {
        println!(
            "metrics-smoke: {label} ledger ok — {} counters, {} gauges, {} histograms",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        );
    }
    !failed
}

fn metrics_smoke() -> ExitCode {
    let mut failed = false;

    // Golden schema fixture, shared by both backend runs.
    let fixture_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../tuplespace/tests/fixtures/metrics_snapshot.golden.json");
    let fixture = match std::fs::read_to_string(&fixture_path) {
        Ok(fixture) => {
            if let Err(e) = MetricsSnapshot::from_json(&fixture) {
                eprintln!("metrics-smoke: golden fixture does not decode: {e}");
                failed = true;
            }
            Some(fixture)
        }
        Err(e) => {
            eprintln!(
                "metrics-smoke: cannot read golden fixture {}: {e}",
                fixture_path.display()
            );
            failed = true;
            None
        }
    };

    // ---- 1. Metered farm over the in-process backend. ---------------
    match smoke_farm("local", None) {
        Some(snap) => failed |= !validate_snapshot("local", &snap, fixture.as_deref()),
        None => failed = true,
    }

    // ---- 1b. The identical farm over the socket backend: the frozen
    // `fpdm.metrics.v1` schema must hold for broker-backed runs too.
    let sock = std::env::temp_dir().join(format!("fpdm-metrics-smoke-{}.sock", std::process::id()));
    match Broker::start(BrokerConfig::new(&sock)) {
        Ok(broker) => match TupleSpace::connect_unix(broker.socket()) {
            Ok(space) => match smoke_farm("socket", Some(Arc::new(space))) {
                Some(snap) => failed |= !validate_snapshot("socket", &snap, fixture.as_deref()),
                None => failed = true,
            },
            Err(e) => {
                eprintln!("metrics-smoke: cannot connect to broker: {e}");
                failed = true;
            }
        },
        Err(e) => {
            eprintln!(
                "metrics-smoke: cannot start broker on {}: {e}",
                sock.display()
            );
            failed = true;
        }
    }

    // ---- 2. Disabled-path overhead envelope. ------------------------
    // Best-of-5 over 50k out/inp cycles (2 space events per cycle),
    // comparing spaces that had a sink installed then removed (the gated
    // path CI cares about) against one that never had one. A registry and
    // a recorder flip the same probe flag, so both removals are timed.
    const ITERS: u64 = 50_000;
    let pristine = TupleSpace::new();
    let metered = TupleSpace::new();
    metered.set_metrics(Some(MetricsRegistry::new()));
    metered.set_metrics(None);
    let traced = TupleSpace::new();
    traced.set_recorder(Some(Recorder::new()));
    traced.set_recorder(None);
    let spaces = [&pristine, &metered, &traced];
    for ts in spaces {
        measure_cycle_ns(ts, ITERS); // warm every space up
    }
    // Rounds interleave the spaces, so drift in machine load over the
    // run biases none of them.
    let mut best = [f64::INFINITY; 3];
    for _ in 0..5 {
        for (b, ts) in best.iter_mut().zip(spaces) {
            *b = b.min(measure_cycle_ns(ts, ITERS));
        }
    }
    let base = best[0];
    for (label, off) in [("metrics-off", best[1]), ("recorder-off", best[2])] {
        let per_event = (off - base) / 2.0;
        println!(
            "metrics-smoke: out/inp cycle {base:.1} ns pristine, {off:.1} ns {label} \
             ({per_event:+.1} ns/event, envelope {OFF_ENVELOPE_NS} ns)"
        );
        if per_event > OFF_ENVELOPE_NS {
            eprintln!(
                "metrics-smoke: {label} overhead {per_event:.1} ns/event exceeds the \
                 {OFF_ENVELOPE_NS} ns envelope"
            );
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Audit CHANGES.md: every non-blank line is a `- PR <n>: ...` entry or
/// a finding note (`FOUND: ...`, a defect seen and not yet mended, or
/// `MENDED: ...` once a later entry mends it), and the entries' numbers
/// form a contiguous, duplicate-free `1..=max`. Catches the
/// failure mode this repo actually hit: a session whose changelog line
/// went missing, leaving a silent gap in the PR history.
fn changes_check(path: Option<&str>) -> ExitCode {
    let path = path
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../CHANGES.md"));
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("changes-check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let problems = changes_problems(&text);
    for problem in &problems {
        eprintln!("changes-check: {}: {problem}", path.display());
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Everything [`changes_check`] rejects in a changelog `text`.
fn changes_problems(text: &str) -> Vec<String> {
    let mut numbers = Vec::new();
    let mut problems = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let note = ["FOUND:", "MENDED:"]
            .iter()
            .find_map(|tag| line.strip_prefix(tag));
        if note.is_some_and(|desc| !desc.trim().is_empty()) {
            continue;
        }
        let entry = line
            .strip_prefix("- PR ")
            .and_then(|rest| rest.split_once(':'))
            .and_then(|(n, desc)| Some((n.trim().parse::<u64>().ok()?, desc)));
        match entry {
            Some((n, desc)) if !desc.trim().is_empty() => numbers.push((lineno + 1, n)),
            _ => problems.push(format!(
                "line {} is neither a '- PR <n>: <description>' entry \
                 nor a 'FOUND:'/'MENDED:' note",
                lineno + 1
            )),
        }
    }
    let Some(max) = numbers.iter().map(|&(_, n)| n).max() else {
        problems.push("no PR entries".to_string());
        return problems;
    };
    for want in 1..=max {
        match numbers.iter().filter(|&&(_, n)| n == want).count() {
            1 => {}
            0 => problems.push(format!("PR {want} is missing (entries reach PR {max})")),
            k => problems.push(format!("PR {want} appears {k} times")),
        }
    }
    for pair in numbers.windows(2) {
        if pair[1].1 <= pair[0].1 {
            problems.push(format!(
                "line {}: PR {} listed after PR {} — entries must be in order",
                pair[1].0, pair[1].1, pair[0].1
            ));
        }
    }
    problems
}

/// Gate the fresh benchmark file against the baseline: print one line
/// per fresh row, exit 1 on any regression, 2 on an unusable file or a
/// pair of files with no gated row in common.
fn bench_gate(baseline_path: &str, fresh_path: &str) -> ExitCode {
    let inputs = bench::read(baseline_path).and_then(|baseline| {
        let fresh = bench::read(fresh_path)?;
        let compared = bench::gate(&baseline, &fresh)?;
        Ok((baseline, fresh, compared))
    });
    let (baseline, fresh, compared) = match inputs {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bench-gate: {fresh_path} vs {baseline_path} (tolerance {}%)",
        bench::TOLERANCE_PCT
    );
    for key in fresh.keys().filter(|k| !baseline.contains_key(*k)) {
        println!("  {key:<36} no baseline row, skipped");
    }
    for c in &compared {
        let delta = c.delta_pct.map_or("-".into(), |d| format!("{d:+.1}%"));
        let verdict = match (c.baseline.better, c.regressed) {
            (Better::None, _) => "context",
            (_, true) => "REGRESSED",
            (_, false) => "ok",
        };
        println!(
            "  {:<36} {:>14.3} -> {:>14.3}  {delta:>8}  {verdict}",
            c.key, c.baseline.value, c.fresh
        );
    }
    let gated = compared
        .iter()
        .filter(|c| c.baseline.better != Better::None)
        .count();
    let regressed = compared.iter().filter(|c| c.regressed).count();
    if gated == 0 {
        eprintln!("bench-gate: no row of {fresh_path} has a gated baseline row");
        ExitCode::from(2)
    } else if regressed > 0 {
        eprintln!("bench-gate: {regressed} of {gated} gated row(s) regressed");
        ExitCode::FAILURE
    } else {
        println!("bench-gate: ok ({gated} gated row(s))");
        ExitCode::SUCCESS
    }
}

/// Mean wall nanoseconds per out+inp cycle over `iters` cycles.
fn measure_cycle_ns(ts: &TupleSpace, iters: u64) -> f64 {
    let tmpl = Template::new(vec![field::val("t"), field::int()]);
    let start = Instant::now();
    for _ in 0..iters {
        ts.out(tup!["t", 1]);
        std::hint::black_box(ts.inp(&tmpl)).unwrap();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::changes_problems;

    #[test]
    fn a_contiguous_log_with_finding_notes_passes() {
        let log = "- PR 1: first\n\n- PR 2: second\nFOUND: `a.rs` leaks a thread\n\
                   MENDED: `b.rs` double-counted a task\n";
        assert_eq!(changes_problems(log), Vec::<String>::new());
    }

    #[test]
    fn an_empty_or_unknown_note_is_rejected() {
        for bad in [
            "FOUND:",
            "MENDED:   ",
            "NOTE: something",
            "found: lower case",
        ] {
            let problems = changes_problems(&format!("- PR 1: first\n{bad}\n"));
            assert_eq!(problems.len(), 1, "{bad:?}: {problems:?}");
            assert!(problems[0].starts_with("line 2 "), "{problems:?}");
        }
    }

    #[test]
    fn notes_do_not_stand_in_for_a_missing_entry() {
        let problems = changes_problems("- PR 1: first\nFOUND: x\n- PR 3: third\n");
        assert_eq!(problems, vec!["PR 2 is missing (entries reach PR 3)"]);
        assert_eq!(changes_problems("FOUND: x\n"), vec!["no PR entries"]);
    }
}
