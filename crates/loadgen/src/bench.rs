//! The committed benchmark baselines: one file format and one gate.
//!
//! Every `BENCH_*.json` at the repository root is an `fpdm.bench.v1`
//! document. Each row carries its measured value, the direction in which
//! a change is a regression, and an absolute slack below which a change
//! is timer noise:
//!
//! ```text
//! {
//!   "schema": "fpdm.bench.v1",
//!   "rows": {
//!     "out_inp.local_ns": {"value": 293.759, "better": "none", "slack": 0},
//!     "out_inp.socket_ns": {"value": 10930.870, "better": "lower", "slack": 500}
//!   }
//! }
//! ```
//!
//! The producers (`loadgen`, `bench_classify`, the `backend_bench`
//! example) only measure and [`write()`]; `cargo run -p xtask -- bench-gate
//! BASELINE FRESH` [`read`]s both files and runs [`gate`]. A gated row
//! regresses when it moves the wrong way by more than [`TOLERANCE_PCT`]
//! of its baseline value *and* by more than the baseline row's slack;
//! `none` rows are context and never fail.

use plinda::metrics::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag of every committed baseline.
const SCHEMA: &str = "fpdm.bench.v1";

/// Relative regression tolerance of the gate, in percent.
pub const TOLERANCE_PCT: f64 = 25.0;

/// Which way a row must not move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// An increase is a regression (latencies, wall times).
    Lower,
    /// A decrease is a regression (throughput).
    Higher,
    /// Context only: never gated.
    None,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::None => "none",
        }
    }
}

/// One benchmark row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// The measured value, in the unit the key names.
    pub value: f64,
    /// Which way the value must not move.
    pub better: Better,
    /// Absolute change below which a move is noise, in the value's unit.
    pub slack: f64,
}

/// A benchmark file's rows, by key.
pub type Rows = BTreeMap<String, Row>;

/// Render `rows` as an `fpdm.bench.v1` document (values to three
/// decimals, one row per line).
fn to_json(rows: &Rows) -> String {
    let mut body = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"rows\": {{\n");
    for (i, (key, row)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{key}\": {{\"value\": {:.3}, \"better\": \"{}\", \"slack\": {}}}{sep}\n",
            row.value,
            row.better.name(),
            row.slack
        ));
    }
    body.push_str("  }\n}\n");
    body
}

/// Parse an `fpdm.bench.v1` document. Rejects another schema, unknown or
/// missing fields, duplicate keys, non-finite values and negative slack.
fn from_json(text: &str) -> Result<Rows, String> {
    fn field<'a>(obj: &'a [(String, Json)], key: &str, what: &str) -> Result<&'a Json, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{what}: missing {key:?}"))
    }
    let doc = json::parse(text)?;
    let top = doc.as_obj("document")?;
    let schema = field(top, "schema", "document")?.as_str("schema")?;
    if schema != SCHEMA {
        return Err(format!("unknown schema {schema:?} (expected {SCHEMA:?})"));
    }
    if top.len() != 2 {
        return Err("document: expected exactly \"schema\" and \"rows\"".into());
    }
    let mut rows = Rows::new();
    for (key, v) in field(top, "rows", "document")?.as_obj("rows")? {
        let obj = v.as_obj(key)?;
        let value = field(obj, "value", key)?.as_f64(key)?;
        let slack = field(obj, "slack", key)?.as_f64(key)?;
        let better = match field(obj, "better", key)?.as_str(key)? {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            "none" => Better::None,
            other => return Err(format!("{key}: unknown direction {other:?}")),
        };
        if obj.len() != 3 {
            return Err(format!("{key}: expected exactly value, better and slack"));
        }
        if !(value.is_finite() && slack.is_finite() && slack >= 0.0) {
            return Err(format!("{key}: value {value} / slack {slack} out of range"));
        }
        let row = Row {
            value,
            better,
            slack,
        };
        if rows.insert(key.clone(), row).is_some() {
            return Err(format!("{key}: duplicate row"));
        }
    }
    Ok(rows)
}

/// Write `rows` to `path`, creating its directory.
pub fn write(path: impl AsRef<Path>, rows: &Rows) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_json(rows))
}

/// Read and parse the benchmark file at `path`.
pub fn read(path: impl AsRef<Path>) -> Result<Rows, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One fresh row set against its baseline row.
#[derive(Debug)]
pub struct Comparison {
    /// Row key.
    pub key: String,
    /// The baseline row.
    pub baseline: Row,
    /// The fresh value.
    pub fresh: f64,
    /// Relative change from the baseline, in percent (`None` when the
    /// baseline value is 0, which only a `none` row may be).
    pub delta_pct: Option<f64>,
    /// Whether the change fails the gate.
    pub regressed: bool,
}

/// Compare every fresh row that has a baseline row. Fresh rows with no
/// baseline row are skipped, so adding a row never fails the gate
/// retroactively. Errors when a gated baseline value is not positive
/// (a relative tolerance of it means nothing).
pub fn gate(baseline: &Rows, fresh: &Rows) -> Result<Vec<Comparison>, String> {
    if let Some((key, row)) = baseline
        .iter()
        .find(|(_, r)| r.better != Better::None && r.value <= 0.0)
    {
        return Err(format!("{key}: gated baseline value {} <= 0", row.value));
    }
    Ok(fresh
        .iter()
        .filter_map(|(key, new)| {
            let old = *baseline.get(key)?;
            let delta_pct = (old.value != 0.0).then(|| (new.value - old.value) / old.value * 100.0);
            // +1 when an increase is worse, -1 when a decrease is, 0 if neither.
            let sign = match old.better {
                Better::Lower => 1.0,
                Better::Higher => -1.0,
                Better::None => 0.0,
            };
            let regressed = sign * (new.value - old.value) > old.slack
                && delta_pct.is_some_and(|d| sign * d > TOLERANCE_PCT);
            Some(Comparison {
                key: key.clone(),
                baseline: old,
                fresh: new.value,
                delta_pct,
                regressed,
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows<const N: usize>(entries: [(&str, f64, Better, f64); N]) -> Rows {
        entries
            .into_iter()
            .map(|(key, value, better, slack)| {
                let row = Row {
                    value,
                    better,
                    slack,
                };
                (key.to_string(), row)
            })
            .collect()
    }

    fn one(key: &str, value: f64, better: Better, slack: f64) -> Rows {
        rows([(key, value, better, slack)])
    }

    #[test]
    fn gate_verdicts_match_the_table() {
        use Better::{Higher, Lower};
        let none = Better::None;
        // Service rows (p99, throughput: slack 0), classify (0.1 ms) and
        // backend (2 ms, 500 ns) slack, and context rows.
        // (case, direction, slack, baseline, fresh, regresses)
        let cases = [
            ("p99 +20%", Lower, 0.0, 1000.0, 1200.0, false),
            ("p99 +100%", Lower, 0.0, 1000.0, 2000.0, true),
            ("p99 -90%", Lower, 0.0, 1000.0, 100.0, false),
            ("rps -10%", Higher, 0.0, 100.0, 90.0, false),
            ("rps -50%", Higher, 0.0, 100.0, 50.0, true),
            ("rps +400%", Higher, 0.0, 100.0, 500.0, false),
            ("classify +0.05 ms", Lower, 0.1, 0.05, 0.1, false),
            ("classify +0.2 ms", Lower, 0.1, 0.2, 0.4, true),
            ("backend +1.5 ms", Lower, 2.0, 3.0, 4.5, false),
            ("backend +5 ms", Lower, 2.0, 10.0, 15.0, true),
            ("backend +450 ns", Lower, 500.0, 900.0, 1350.0, false),
            ("backend +1000 ns", Lower, 500.0, 2000.0, 3000.0, true),
            ("none far up", none, 0.0, 300.0, 3e9, false),
            ("none to zero", none, 0.0, 300.0, 0.0, false),
            ("none from zero", none, 0.0, 0.0, 300.0, false),
        ];
        for (case, better, slack, old, new, want) in cases {
            let got = gate(&one("k", old, better, slack), &one("k", new, better, slack));
            assert_eq!(got.unwrap()[0].regressed, want, "{case}");
        }
        // A fresh row with no baseline row is skipped.
        let skipped = gate(&one("a", 1.0, Lower, 0.0), &one("b", 1e9, Lower, 0.0));
        assert!(skipped.unwrap().is_empty());
        // A gated baseline value <= 0 is rejected.
        for (better, value) in [(Lower, 0.0), (Higher, -1.0)] {
            let err = gate(&one("k", value, better, 0.0), &Rows::new()).unwrap_err();
            assert!(err.contains("<= 0"), "{err}");
        }

        let doc = to_json(&one("p99_ns", 1.0, Lower, 0.0));
        // (case, replace, with, error contains)
        let malformed = [
            ("wrong schema", SCHEMA, "fpdm.bench.v0", "unknown schema"),
            ("missing field", ", \"slack\": 0", "", "missing \"slack\""),
            ("extra field", "}\n", ", \"n\": 1}\n", "exactly"),
            ("bad direction", "lower", "down", "unknown direction"),
            ("string value", "1.000", "\"1\"", "expected number"),
            ("negative slack", "0}", "-1}", "out of range"),
            ("truncated", "  }\n}\n", "", "expected"),
            (
                "duplicate row",
                "0}\n",
                "0},\n    \"p99_ns\": {\"value\": 2, \"better\": \"none\", \"slack\": 0}\n",
                "duplicate",
            ),
        ];
        for (case, from, to, want) in malformed {
            let err = from_json(&doc.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(want), "{case}: {err}");
        }
        let legacy = from_json("{\"schema\": 1, \"a_ms\": 1.5}").unwrap_err();
        assert!(legacy.contains("schema"), "{legacy}");
    }

    #[test]
    fn json_round_trips() {
        let original = rows([
            ("smoke_p99_ns", 148_200_983.0, Better::Lower, 0.0),
            ("smoke_throughput_rps", 636.734, Better::Higher, 0.0),
            ("fast.vote.index_build_ms", 0.008, Better::Lower, 0.1),
            ("out_inp.socket_ns", 10_930.87, Better::Lower, 500.0),
            ("out_inp.local_ns", 293.759, Better::None, 0.0),
        ]);
        let dir = std::env::temp_dir().join(format!("fpdm-bench-test-{}", std::process::id()));
        let path = dir.join("nested").join("bench.json");
        write(&path, &original).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read(&path).unwrap(), original);
        assert_eq!(to_json(&from_json(&text).unwrap()), text, "byte-stable");
        std::fs::remove_dir_all(&dir).ok();
        assert!(read(&path).unwrap_err().contains("bench.json"));
    }
}
